/**
 * @file
 * Top-level MLPsim API.
 *
 * Typical use, with the trace built by core::PreparedTrace::make
 * (core/trace_pipeline.hh):
 * @code
 *   core::TraceSpec spec;
 *   spec.workload = "database";
 *   spec.seed = workloads::workloadSeed(spec.workload);
 *   spec.totalInsts = 5'000'000;
 *   spec.annotation.warmupInsts = 1'000'000;
 *   const auto trace = core::PreparedTrace::make(spec).orFatal();
 *
 *   core::MlpConfig cfg = core::MlpConfig::defaultOoO();
 *   cfg.warmupInsts = trace.warmupInsts();
 *   core::MlpResult r = core::runMlp(cfg, trace.context());
 *   std::cout << r.mlp() << '\n';
 * @endcode
 */
#pragma once

#include <cstdint>

#include "branch/branch_unit.hh"
#include "core/epoch_engine.hh"
#include "core/inorder_model.hh"
#include "core/mlp_config.hh"
#include "core/mlp_result.hh"
#include "core/workload_context.hh"
#include "memory/access_profiler.hh"
#include "predictor/value_predictor.hh"
#include "trace/trace_buffer.hh"

namespace mlpsim::core {

/** Substrate configurations used to annotate a trace. */
struct AnnotationOptions
{
    memory::HierarchyConfig hierarchy;
    branch::BranchConfig branch;
    predictor::ValuePredictorConfig value;
    /** Also run the value predictor (needed for VP experiments). */
    bool buildValues = true;
    /** Instructions excluded from all statistics (cache/predictor
     *  warm-up); pass the same value in MlpConfig::warmupInsts. */
    uint64_t warmupInsts = 0;

    /** Check every substrate configuration (hierarchy, branch,
     *  value predictor) before anything is constructed. */
    Status validate() const;
};

/**
 * A trace plus the program-order annotations every simulator shares:
 * which accesses go off-chip (and which prefetches are useful), which
 * branches mispredict, and which missing loads value-predict
 * correctly. Built by one annotate pass over the trace's chunks
 * (core/trace_pipeline.hh). The trace is any ChunkSource: a
 * materialised TraceBuffer, or a generator that is re-streamed on
 * every simulator run, in which case only the annotation planes are
 * kept in memory.
 */
class AnnotatedTrace
{
  public:
    /**
     * Validate @p options, then stream @p source once through the
     * annotators. The source must outlive the returned object.
     *
     * With @p keep, an empty TraceBuffer, each chunk is also kept in
     * it (TraceBuffer::adopt) once annotated, and the result annotates
     * @p keep instead of @p source: this is how PreparedTrace::make
     * materialises one generation of a trace.
     */
    static Expected<AnnotatedTrace>
    make(const trace::ChunkSource &source, const AnnotationOptions &options,
         trace::TraceBuffer *keep = nullptr);

    /** Borrowing view passed to the simulators. */
    WorkloadContext context() const;

    /** Instructions streamed through the annotate pass. */
    uint64_t instructions() const { return numInsts; }
    const memory::MissAnnotations &misses() const { return missAnn; }
    const branch::BranchAnnotations &branches() const { return brAnn; }
    const predictor::ValueAnnotations &values() const { return valAnn; }
    const AnnotationOptions &options() const { return opts; }

  private:
    /** Unannotated: make() fills in the planes. */
    AnnotatedTrace(const trace::ChunkSource &source,
                   const AnnotationOptions &options)
        : src(&source), opts(options)
    {
    }

    const trace::ChunkSource *src;
    AnnotationOptions opts;
    memory::MissAnnotations missAnn;
    branch::BranchAnnotations brAnn;
    predictor::ValueAnnotations valAnn;
    uint64_t numInsts = 0;
};

/**
 * Run the epoch-model simulator configured by @p config over
 * @p workload and return its MLP statistics. Dispatches to the
 * out-of-order/runahead engine or the in-order models by mode.
 * Fails (without simulating) if the configuration is inconsistent
 * (MlpConfig::validate) or the context is incomplete.
 */
Expected<MlpResult> tryRunMlp(const MlpConfig &config,
                              const WorkloadContext &workload);

/** fatal()-on-error wrapper around tryRunMlp() for existing callers. */
MlpResult runMlp(const MlpConfig &config, const WorkloadContext &workload);

} // namespace mlpsim::core
