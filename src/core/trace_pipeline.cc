#include "trace_pipeline.hh"

#include <optional>

#include "metrics/registry.hh"
#include "util/cancellation.hh"

namespace mlpsim::core {

namespace {

/**
 * The annotate pass both trace modes run: feed every chunk of
 * @p stream, in order, to the profiler, then the branch annotator,
 * then (if opts.buildValues) the value annotator, and move the
 * completed annotations out. Returns the instructions annotated.
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
AnnotatedTrace::make(const trace::TraceBuffer &buffer,
                     const AnnotationOptions &options)
{
    MLPSIM_RETURN_IF_ERROR(options.validate().withContext(
        "annotating trace '", buffer.name(), "'"));
    return AnnotatedTrace(buffer, options);
}

AnnotatedTrace::AnnotatedTrace(const trace::TraceBuffer &buffer,
                               const AnnotationOptions &options)
    : buf(&buffer), opts(options)
{
    opts.validate().orFatal();
    annotatePass(*buffer.chunkSource().open(), opts, missAnn, brAnn,
                 valAnn);
    hasValues = opts.buildValues;
}

WorkloadContext
AnnotatedTrace::context() const
{
    WorkloadContext ctx;
    ctx.buffer = buf;
    ctx.misses = &missAnn;
    ctx.branches = &brAnn;
    ctx.values = hasValues ? &valAnn : nullptr;
    return ctx;
}

Expected<StreamingTrace>
StreamingTrace::make(const trace::ChunkSource &source,
                     const AnnotationOptions &options)
{
    MLPSIM_RETURN_IF_ERROR(options.validate().withContext(
        "annotating stream '", source.name(), "'"));
    return StreamingTrace(source, options);
}

StreamingTrace::StreamingTrace(const trace::ChunkSource &source,
                               const AnnotationOptions &options)
    : src(&source), opts(options)
{
    opts.validate().orFatal();
    numInsts =
        annotatePass(*source.open(), opts, missAnn, brAnn, valAnn);
    hasValues = opts.buildValues;
}

WorkloadContext
StreamingTrace::context() const
{
    WorkloadContext ctx;
    ctx.stream = src;
    ctx.misses = &missAnn;
    ctx.branches = &brAnn;
    ctx.values = hasValues ? &valAnn : nullptr;
    return ctx;
}

} // namespace mlpsim::core
