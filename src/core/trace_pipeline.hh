/**
 * @file
 * The annotate pass, and the prepared trace it produces.
 *
 * PreparedTrace::make(TraceSpec) is the one way the benches, tools and
 * daemon turn a workload into an annotated trace: it builds the
 * generator, materialises or streams the trace, and annotates it. A
 * materialised trace is generated and annotated in one overlapped
 * pass: the calling thread fills the buffer's chunks while a helper
 * thread runs the annotators over each finished one.
 * PreparedTrace::annotate derives an annotation variant (another L2
 * size, a perfect predictor) that shares the generated trace and runs
 * only the annotate pass.
 *
 * A trace is annotated once and then replayed by many simulator runs.
 * AnnotatedTrace::make (core/mlpsim.hh) opens one stream over the
 * trace's ChunkSource and feeds each chunk, in program order, to the
 * chunk-incremental annotators — memory profiler, branch predictor,
 * value predictor — whose internal state carries across chunk
 * boundaries. Only the whole-trace annotation planes (~1 bit per
 * instruction per plane) are kept: a streamed trace's chunks are
 * dropped once the annotators have seen them, which is where
 * streaming's ≥5× peak-RSS win over materialisation comes from. A
 * materialised TraceBuffer runs the very same loop over its own
 * chunks, so the two modes are bit-identical by construction, for any
 * chunk size.
 *
 * The annotation planes must be whole-trace, completed before any
 * engine runs: a demand touch credits a pending software prefetch
 * *retroactively* at an arbitrarily older index (access_profiler.hh),
 * so per-chunk annotations could never be published incrementally.
 *
 * After the pass, context() hands engines the annotation planes plus
 * the trace. An engine run over a streamed trace opens a fresh stream
 * and regenerates the identical instruction sequence (same seed, same
 * chunks — the replay-determinism contract), consuming it through a
 * bounded ChunkWindow; runs over one trace may also share one
 * generation (core/shared_stream.hh).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/mlpsim.hh"
#include "trace/stream_source.hh"

namespace mlpsim::core {

/** AnnotatedTrace under its streamed-mode name, which
 *  perfbench/mlpbench.cc still uses. */
using StreamingTrace = AnnotatedTrace;

/**
 * What PreparedTrace::make builds: one workload trace and how to
 * annotate it.
 */
struct TraceSpec
{
    /** One of workloads::commercialWorkloadNames(). */
    std::string workload;
    /** The generator's Rng seed (workloads::workloadSeed(workload)
     *  for the benches, workloads::presetSeed(workload) for the
     *  preset traces the goldens pin). */
    uint64_t seed = 0;
    /** Trace length in instructions, warm-up included. */
    uint64_t totalInsts = 0;
    /**
     * 0 materialises the trace in a TraceBuffer. N > 0 stores no
     * instruction: every simulator run regenerates the trace in
     * N-instruction chunks (trace::defaultChunkCapacity is the
     * sensible choice). Results are bit-identical either way.
     */
    uint32_t streamChunk = 0;
    /** Annotation substrates; annotation.warmupInsts is the trace's
     *  warm-up, the one value every simulator run must also use. */
    AnnotationOptions annotation;
    /** Names this annotation in metric paths (<workload>/<variant>/…)
     *  and sweep job labels; empty for a workload's plain
     *  annotation. */
    std::string variant;
};

/**
 * One prepared (annotated) trace, shared read-only by the simulator
 * runs over it. It owns its trace in one of two forms — a
 * materialised TraceBuffer, or a generator source that regenerates it
 * on demand — and the annotations of whichever it holds.
 *
 * The generated trace is held by shared ownership: every annotation
 * variant of it (annotate()) shares the one TraceBuffer or generator
 * source. Everything lives on the heap so the annotations'
 * back-pointers stay valid when the object itself is moved.
 */
class PreparedTrace
{
  public:
    /**
     * Generate (or, streamed, set up to regenerate) the trace
     * @p spec names and run the annotate pass over it. An unknown
     * workload or invalid annotation options return a Status in both
     * modes. Under metric collection this records the generate time
     * (materialised) and the workloads/traces and
     * workloads/generated_insts counters.
     */
    static Expected<PreparedTrace> make(const TraceSpec &spec);

    /**
     * make() over @p generator instead of the named workload's own
     * generator: called once to materialise, or once per generation
     * when streamed, it must yield the same stream on every call.
     * spec.workload only names the trace; spec.seed is unused.
     */
    static Expected<PreparedTrace>
    make(const TraceSpec &spec,
         trace::GeneratedChunkSource::SourceFactory generator);

    /**
     * This trace annotated again, under @p options, as the variant
     * named @p variant: the result shares this trace's generated trace
     * and runs only the annotate pass (a streamed trace regenerates
     * for it, as for any run). The variant must keep the trace's
     * warm-up and have a non-empty name; otherwise, or if @p options
     * are invalid, it is an InvalidArgument Status.
     */
    Expected<PreparedTrace> annotate(std::string variant,
                                     const AnnotationOptions &options) const;

    /** The workload name. */
    const std::string &name() const { return traceName; }
    /** The annotation variant's name; empty for a plain annotation. */
    const std::string &variant() const { return variantName; }
    /** Warm-up instructions the annotations excluded; simulator runs
     *  over this trace pass the same value in their configs. */
    uint64_t warmupInsts() const { return ann->options().warmupInsts; }
    /** Borrowing view passed to the simulators. */
    WorkloadContext context() const { return ann->context(); }
    const AnnotatedTrace &annotated() const { return *ann; }
    /** The materialised trace; null when streamed. */
    const trace::TraceBuffer *buffer() const { return src->materialized(); }

  private:
    PreparedTrace(std::string name, std::string variant_name)
        : traceName(std::move(name)), variantName(std::move(variant_name))
    {
    }

    /** The annotate pass, under the variant's metric label. */
    Status annotateWith(const AnnotationOptions &options);

    /**
     * Materialise: fill a TraceBuffer from @p generator and annotate
     * it in one overlapped pass (this thread generates, a helper
     * thread annotates each chunk once it is complete), with the
     * metrics the two passes in turn would record.
     */
    Status generateAndAnnotate(const TraceSpec &spec,
                               trace::TraceSource &generator);

    std::string traceName;
    std::string variantName;
    /** The TraceBuffer, or the generator source when streamed. */
    std::shared_ptr<const trace::ChunkSource> src;
    std::unique_ptr<AnnotatedTrace> ann;
};

} // namespace mlpsim::core
