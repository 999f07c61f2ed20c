#include "trace_pipeline.hh"

#include <atomic>
#include <chrono>
#include <exception>
#include <optional>
#include <thread>

#include "metrics/registry.hh"
#include "trace/chunk_ring.hh"
#include "util/cancellation.hh"
#include "workloads/factory.hh"

namespace mlpsim::core {

namespace {

/**
 * The chunk-incremental annotators of one annotate pass: every chunk,
 * in order, goes to the profiler, then the branch annotator, then (if
 * opts.buildValues) the value annotator. add() touches no metric,
 * label or cancellation state, so a helper thread may run it;
 * finish() records the pass's metrics on the calling thread.
 */
class AnnotatePass
{
  public:
    explicit AnnotatePass(const AnnotationOptions &opts)
        : profiler(profileConfig(opts)),
          branchPass(opts.branch, opts.warmupInsts)
    {
        if (opts.buildValues) {
            // Reads the profiler's data-miss plane at the chunk just
            // fed; that plane is final for already-profiled chunks
            // (only the useful-prefetch plane flips retroactively).
            valuePass.emplace(profiler.partial(), opts.value,
                              opts.warmupInsts);
        }
    }

    AnnotatePass(const AnnotatePass &) = delete;
    AnnotatePass &operator=(const AnnotatePass &) = delete;

    void
    add(const trace::TraceChunk &chunk)
    {
        profiler.add(chunk);
        branchPass.add(chunk);
        if (valuePass)
            valuePass->add(chunk);
        insts += chunk.count;
    }

    /** Move the completed annotations out and count the pass; returns
     *  the instructions annotated. */
    uint64_t
    finish(memory::MissAnnotations &misses,
           branch::BranchAnnotations &branches,
           predictor::ValueAnnotations &values)
    {
        // finish() order matters only for the value pass, which
        // borrows the profiler's in-progress planes: close it out
        // first.
        if (valuePass)
            values = valuePass->finish();
        misses = profiler.finish();
        branches = branchPass.finish();

        if (metrics::enabled()) {
            auto &reg = metrics::cur();
            reg.add(metrics::scopedPath("core/annotate/traces"), 1);
            reg.add(metrics::scopedPath("core/annotate/insts"), insts);
        }
        return insts;
    }

  private:
    static memory::ProfileConfig
    profileConfig(const AnnotationOptions &opts)
    {
        memory::ProfileConfig cfg;
        cfg.hierarchy = opts.hierarchy;
        cfg.warmupInsts = opts.warmupInsts;
        return cfg;
    }

    memory::AccessProfiler profiler;
    branch::BranchAnnotator branchPass;
    std::optional<predictor::ValueAnnotator> valuePass;
    uint64_t insts = 0;
};

/**
 * An AnnotatePass run by one helper thread beside the thread that
 * generates the trace: push() hands it each chunk as soon as the chunk
 * is complete, through a ChunkRing that holds the generator at most
 * ringChunks ahead, and finish() waits for the last chunk and closes
 * the pass on the calling thread. So an overlapped build costs the
 * slower of generation and annotation, not their sum.
 *
 * Only add() runs on the helper. Metric registries, scoped labels and
 * cancellation polls are thread-local, so they stay with the caller,
 * as does allocating the chunks. Destroying the pass before finish()
 * (generation threw: a deadline, say) abandons it: the helper skips
 * what is left in the ring and is joined.
 */
class OverlappedAnnotatePass
{
  public:
    explicit OverlappedAnnotatePass(const AnnotationOptions &opts)
        : pass(opts), ring(ringChunks), consumer(ring.addConsumer()),
          helper([this] { run(); })
    {
    }

    OverlappedAnnotatePass(const OverlappedAnnotatePass &) = delete;
    OverlappedAnnotatePass &
    operator=(const OverlappedAnnotatePass &) = delete;

    ~OverlappedAnnotatePass()
    {
        if (!helper.joinable())
            return;
        abandoned.store(true, std::memory_order_relaxed);
        ring.close();
        helper.join();
    }

    /** Hand one complete chunk to the helper; blocks while it is
     *  ringChunks behind. Rethrows what the helper threw, if it did. */
    void
    push(trace::ChunkPtr chunk)
    {
        if (!ring.push(std::move(chunk)))
            rethrowHelperFailure();
    }

    /** Wait until every pushed chunk is annotated, then finish the
     *  pass here; returns the instructions annotated. */
    uint64_t
    finish(memory::MissAnnotations &misses,
           branch::BranchAnnotations &branches,
           predictor::ValueAnnotations &values)
    {
        ring.close();
        helper.join();
        if (failure)
            std::rethrow_exception(failure);
        // The pass's tail ran while this thread waited, not polled.
        pollCancellation();
        if (metrics::enabled()) {
            metrics::cur().addTime(
                metrics::scopedPath("core/annotate/pass_s"), seconds);
        }
        return pass.finish(misses, branches, values);
    }

  private:
    /** Ring depth between generation and annotation, in chunks. */
    static constexpr size_t ringChunks = 4;

    void
    run()
    {
        try {
            const auto start = std::chrono::steady_clock::now();
            while (trace::ChunkPtr chunk = ring.pop(consumer)) {
                if (abandoned.load(std::memory_order_relaxed))
                    break;
                pass.add(*chunk);
            }
            seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        } catch (...) {
            failure = std::current_exception();
            // Makes the generator's next push() fail instead of
            // blocking on a consumer that is gone.
            ring.detach(consumer);
        }
    }

    void
    rethrowHelperFailure()
    {
        helper.join();
        std::rethrow_exception(failure);
    }

    AnnotatePass pass;
    trace::ChunkRing ring;
    const int consumer;
    std::atomic<bool> abandoned{false};
    std::exception_ptr failure; //!< set by the helper, read after join
    double seconds = 0.0;       //!< the helper's pass, read after join
    std::thread helper;         //!< last: starts once the rest exists
};

} // namespace

Expected<AnnotatedTrace>
AnnotatedTrace::make(const trace::ChunkSource &source,
                     const AnnotationOptions &options)
{
    MLPSIM_RETURN_IF_ERROR(options.validate().withContext(
        "annotating trace '", source.name(), "'"));
    AnnotatedTrace out(source, options);
    AnnotatePass pass(out.opts);
    const auto stream = source.open();
    {
        metrics::ScopedTimer t("core/annotate/pass_s");
        while (trace::ChunkPtr c = stream->next()) {
            // Sweep deadlines stay enforceable while a job annotates
            // (the job thread is here, not in an engine loop).
            pollCancellation();
            pass.add(*c);
        }
    }
    out.numInsts = pass.finish(out.missAnn, out.brAnn, out.valAnn);
    return out;
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
        MLPSIM_RETURN_IF_ERROR(
            prepared.generateAndAnnotate(spec, *generator()));
    } else {
        // Streamed: no instruction is stored. Every stream open builds
        // a fresh generator, at the same seed, so the annotate pass and
        // every simulator run replay the identical instruction
        // sequence.
        prepared.src = std::make_shared<trace::GeneratedChunkSource>(
            spec.workload, spec.totalInsts, std::move(generator),
            spec.streamChunk);
        MLPSIM_RETURN_IF_ERROR(prepared.annotateWith(spec.annotation));
    }

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

Status
PreparedTrace::generateAndAnnotate(const TraceSpec &spec,
                                   trace::TraceSource &generator)
{
    MLPSIM_RETURN_IF_ERROR(spec.annotation.validate().withContext(
        "annotating trace '", spec.workload, "'"));
    auto buf = std::make_shared<trace::TraceBuffer>(spec.workload);
    OverlappedAnnotatePass pass(spec.annotation);
    {
        metrics::ScopedTimer t("workloads/generate_s");
        buf->fill(generator, spec.totalInsts,
                  [&pass](trace::ChunkPtr c) { pass.push(std::move(c)); });
    }
    src = buf;

    std::optional<metrics::ScopedLabel> label;
    if (!variantName.empty())
        label.emplace(variantName);
    ann.reset(new AnnotatedTrace(*buf, spec.annotation));
    ann->numInsts = pass.finish(ann->missAnn, ann->brAnn, ann->valAnn);
    return Status::okStatus();
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
