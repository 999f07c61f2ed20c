/**
 * @file
 * The annotate pass, and the prepared trace it produces.
 *
 * PreparedTrace::make(TraceSpec) is the one way the benches, tools and
 * daemon turn a workload into an annotated trace: it builds the
 * generator, materialises or streams the trace, and annotates it.
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
};

/**
 * One prepared (annotated) trace, shared read-only by the simulator
 * runs over it. It owns its trace in one of two forms — a
 * materialised TraceBuffer, or a generator source that regenerates it
 * on demand — and the annotations of whichever it holds.
 *
 * Everything lives on the heap so the annotations' back-pointers stay
 * valid when the object itself is moved.
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

    /** The workload name. */
    const std::string &name() const { return traceName; }
    /** Warm-up instructions the annotations excluded; simulator runs
     *  over this trace pass the same value in their configs. */
    uint64_t warmupInsts() const { return ann->options().warmupInsts; }
    /** Borrowing view passed to the simulators. */
    WorkloadContext context() const { return ann->context(); }
    const AnnotatedTrace &annotated() const { return *ann; }
    /** The materialised trace; null when streamed. */
    const trace::TraceBuffer *buffer() const { return buf.get(); }

  private:
    explicit PreparedTrace(std::string name) : traceName(std::move(name))
    {
    }

    std::string traceName;
    std::unique_ptr<trace::TraceBuffer> buf;
    std::unique_ptr<trace::GeneratedChunkSource> source;
    std::unique_ptr<AnnotatedTrace> ann;
};

} // namespace mlpsim::core
