/**
 * @file
 * Top-level MLPsim API.
 *
 * Typical use:
 * @code
 *   workloads::DatabaseWorkload db(workloads::DatabaseParams{});
 *   trace::TraceBuffer buf("db");
 *   buf.fill(db, 5'000'000);
 *
 *   core::AnnotationOptions opts;
 *   opts.warmupInsts = 1'000'000;
 *   core::AnnotatedTrace annotated(buf, opts);
 *
 *   core::MlpResult r =
 *       core::runMlp(core::MlpConfig::defaultOoO(), annotated.context());
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
 * correctly. Built by the annotate pass over the buffer's chunks
 * (core/trace_pipeline.hh), the same pass a StreamingTrace runs.
 */
class AnnotatedTrace
{
  public:
    /**
     * fatal()-on-error wrapper around make() kept for existing
     * callers; terminates if @p options fail validation.
     */
    AnnotatedTrace(const trace::TraceBuffer &buffer,
                   const AnnotationOptions &options);

    /**
     * Validate @p options, then profile and annotate @p buffer.
     * The buffer must outlive the returned object.
     */
    static Expected<AnnotatedTrace>
    make(const trace::TraceBuffer &buffer,
         const AnnotationOptions &options);

    /** Borrowing view passed to the simulators. */
    WorkloadContext context() const;

    const trace::TraceBuffer &buffer() const { return *buf; }
    const memory::MissAnnotations &misses() const { return missAnn; }
    const branch::BranchAnnotations &branches() const { return brAnn; }
    const predictor::ValueAnnotations &values() const { return valAnn; }
    const AnnotationOptions &options() const { return opts; }

  private:
    const trace::TraceBuffer *buf;
    AnnotationOptions opts;
    memory::MissAnnotations missAnn;
    branch::BranchAnnotations brAnn;
    predictor::ValueAnnotations valAnn;
    bool hasValues = false;
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
