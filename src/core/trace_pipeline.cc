#include "trace_pipeline.hh"

#include <optional>

#include "metrics/registry.hh"
#include "util/cancellation.hh"
#include "workloads/factory.hh"

namespace mlpsim::core {

namespace {

/**
 * The annotate pass: feed every chunk of @p stream, in order, to the
 * profiler, then the branch annotator, then (if opts.buildValues) the
 * value annotator, and move the completed annotations out. Returns the
 * instructions annotated.
 */
uint64_t
annotatePass(trace::ChunkStream &stream, const AnnotationOptions &opts,
             memory::MissAnnotations &misses,
             branch::BranchAnnotations &branches,
             predictor::ValueAnnotations &values)
{
    memory::ProfileConfig profile_cfg;
    profile_cfg.hierarchy = opts.hierarchy;
    profile_cfg.warmupInsts = opts.warmupInsts;
    memory::AccessProfiler profiler(profile_cfg);
    branch::BranchAnnotator branch_pass(opts.branch, opts.warmupInsts);
    std::optional<predictor::ValueAnnotator> value_pass;
    if (opts.buildValues) {
        // Reads the profiler's data-miss plane at the chunk just fed;
        // that plane is final for already-profiled chunks (only the
        // useful-prefetch plane flips retroactively).
        value_pass.emplace(profiler.partial(), opts.value,
                           opts.warmupInsts);
    }

    uint64_t insts = 0;
    {
        metrics::ScopedTimer t("core/annotate/pass_s");
        while (trace::ChunkPtr c = stream.next()) {
            // Sweep deadlines stay enforceable while a job annotates
            // (the job thread is here, not in an engine loop).
            pollCancellation();
            profiler.add(*c);
            branch_pass.add(*c);
            if (value_pass)
                value_pass->add(*c);
            insts += c->count;
        }
    }

    // finish() order matters only for the value pass, which borrows
    // the profiler's in-progress planes: close it out first.
    if (value_pass)
        values = value_pass->finish();
    misses = profiler.finish();
    branches = branch_pass.finish();

    if (metrics::enabled()) {
        metrics::cur().add(metrics::scopedPath("core/annotate/traces"), 1);
        metrics::cur().add(metrics::scopedPath("core/annotate/insts"),
                           insts);
    }
    return insts;
}

} // namespace

Expected<AnnotatedTrace>
AnnotatedTrace::make(const trace::ChunkSource &source,
                     const AnnotationOptions &options)
{
    MLPSIM_RETURN_IF_ERROR(options.validate().withContext(
        "annotating trace '", source.name(), "'"));
    return AnnotatedTrace(source, options);
}

AnnotatedTrace::AnnotatedTrace(const trace::ChunkSource &source,
                               const AnnotationOptions &options)
    : src(&source), opts(options)
{
    numInsts = annotatePass(*source.open(), opts, missAnn, brAnn, valAnn);
}

WorkloadContext
AnnotatedTrace::context() const
{
    WorkloadContext ctx;
    ctx.source = src;
    ctx.misses = &missAnn;
    ctx.branches = &brAnn;
    ctx.values = opts.buildValues ? &valAnn : nullptr;
    return ctx;
}

Expected<PreparedTrace>
PreparedTrace::make(const TraceSpec &spec)
{
    // Both modes build a generator here, so an unknown workload is a
    // Status in both rather than a fatal() on whichever thread first
    // opens a streamed source.
    MLPSIM_ASSIGN_OR_RETURN(
        auto generator, workloads::tryMakeWorkload(spec.workload, spec.seed));
    PreparedTrace prepared(spec.workload);
    if (spec.streamChunk == 0) {
        prepared.buf = std::make_unique<trace::TraceBuffer>(spec.workload);
        metrics::ScopedTimer t("workloads/generate_s");
        prepared.buf->fill(*generator, spec.totalInsts);
    } else {
        // Streamed: no instruction is stored. The factory re-creates
        // the generator, at the same seed, for every stream open, so
        // the annotate pass and every simulator run replay the
        // identical instruction sequence.
        prepared.source = std::make_unique<trace::GeneratedChunkSource>(
            spec.workload, spec.totalInsts,
            [name = spec.workload, seed = spec.seed] {
                return workloads::makeWorkload(name, seed);
            },
            spec.streamChunk);
    }
    return annotate(std::move(prepared), spec.annotation);
}

Expected<PreparedTrace>
PreparedTrace::make(const TraceSpec &spec, trace::TraceBuffer trace)
{
    PreparedTrace prepared(spec.workload);
    prepared.buf = std::make_unique<trace::TraceBuffer>(std::move(trace));
    return annotate(std::move(prepared), spec.annotation);
}

Expected<PreparedTrace>
PreparedTrace::annotate(PreparedTrace prepared,
                        const AnnotationOptions &options)
{
    const trace::ChunkSource &trace =
        prepared.buf ? static_cast<const trace::ChunkSource &>(*prepared.buf)
                     : *prepared.source;
    MLPSIM_ASSIGN_OR_RETURN(AnnotatedTrace annotated,
                            AnnotatedTrace::make(trace, options));
    prepared.ann = std::make_unique<AnnotatedTrace>(std::move(annotated));
    if (metrics::enabled()) {
        // Both modes count the instructions the annotate pass saw, so
        // their metric snapshots stay byte-identical.
        auto &reg = metrics::cur();
        reg.add(metrics::scopedPath("workloads/traces"), 1);
        reg.add(metrics::scopedPath("workloads/generated_insts"),
                prepared.ann->instructions());
    }
    return prepared;
}

} // namespace mlpsim::core
