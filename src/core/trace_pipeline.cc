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
    // Build one generator here to check the name, so an unknown
    // workload is a Status in both modes rather than a fatal() on
    // whichever thread first opens a streamed source.
    MLPSIM_RETURN_IF_ERROR(
        workloads::tryMakeWorkload(spec.workload, spec.seed).status());
    return make(spec, [name = spec.workload, seed = spec.seed] {
        return workloads::makeWorkload(name, seed);
    });
}

Expected<PreparedTrace>
PreparedTrace::make(const TraceSpec &spec,
                    trace::GeneratedChunkSource::SourceFactory generator)
{
    PreparedTrace prepared(spec.workload, spec.variant);
    if (spec.streamChunk == 0) {
        auto buf = std::make_shared<trace::TraceBuffer>(spec.workload);
        const auto source = generator();
        metrics::ScopedTimer t("workloads/generate_s");
        buf->fill(*source, spec.totalInsts);
        prepared.src = std::move(buf);
    } else {
        // Streamed: no instruction is stored. Every stream open builds
        // a fresh generator, at the same seed, so the annotate pass and
        // every simulator run replay the identical instruction
        // sequence.
        prepared.src = std::make_shared<trace::GeneratedChunkSource>(
            spec.workload, spec.totalInsts, std::move(generator),
            spec.streamChunk);
    }

    MLPSIM_RETURN_IF_ERROR(prepared.annotateWith(spec.annotation));
    if (metrics::enabled()) {
        // Both modes count the instructions the annotate pass saw, so
        // their metric snapshots stay byte-identical. Variants of the
        // trace (annotate()) count nothing here: it is one trace.
        auto &reg = metrics::cur();
        reg.add(metrics::scopedPath("workloads/traces"), 1);
        reg.add(metrics::scopedPath("workloads/generated_insts"),
                prepared.ann->instructions());
    }
    return prepared;
}

Expected<PreparedTrace>
PreparedTrace::annotate(std::string variant,
                        const AnnotationOptions &options) const
{
    if (variant.empty()) {
        return Status::invalidArgument(
            "an annotation variant of trace '", traceName,
            "' needs a name");
    }
    if (options.warmupInsts != warmupInsts()) {
        return Status::invalidArgument(
            "annotation variant '", variant, "' of trace '", traceName,
            "' has a warm-up of ", options.warmupInsts,
            " instructions, but the trace's is ", warmupInsts());
    }
    PreparedTrace out(traceName, std::move(variant));
    out.src = src;
    MLPSIM_RETURN_IF_ERROR(out.annotateWith(options));
    return out;
}

Status
PreparedTrace::annotateWith(const AnnotationOptions &options)
{
    std::optional<metrics::ScopedLabel> label;
    if (!variantName.empty())
        label.emplace(variantName);
    MLPSIM_ASSIGN_OR_RETURN(AnnotatedTrace annotated,
                            AnnotatedTrace::make(*src, options));
    ann = std::make_unique<AnnotatedTrace>(std::move(annotated));
    return Status::okStatus();
}

} // namespace mlpsim::core
