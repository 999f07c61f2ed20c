/**
 * @file
 * The annotate pass, for both trace modes.
 *
 * A trace is annotated once and then replayed by many simulator runs.
 * The annotate pass walks the trace's chunks in program order and
 * feeds each chunk to the chunk-incremental annotators — memory
 * profiler, branch predictor, value predictor — whose internal state
 * carries across chunk boundaries. AnnotatedTrace (core/mlpsim.hh)
 * walks a materialised TraceBuffer's chunks; StreamingTrace opens one
 * stream over a replayable ChunkSource and keeps only the whole-trace
 * annotation planes (~1 bit per instruction per plane), dropping each
 * instruction chunk once the annotators have seen it, which is where
 * streaming's ≥5× peak-RSS win over materialisation comes from. Both
 * run the same chunk loop, so the two modes are bit-identical by
 * construction, for any chunk size.
 *
 * The annotation planes must be whole-trace, completed before any
 * engine runs: a demand touch credits a pending software prefetch
 * *retroactively* at an arbitrarily older index (access_profiler.hh),
 * so per-chunk annotations could never be published incrementally.
 *
 * After the pass, context() hands engines the annotation planes plus
 * the trace. A streamed trace's engine runs each open a fresh stream
 * and regenerate the identical instruction sequence (same seed, same
 * chunks — the replay-determinism contract), consuming it through a
 * bounded ChunkWindow; runs over one trace may also share one
 * generation (core/shared_stream.hh).
 */
#pragma once

#include <cstdint>
#include <memory>

#include "core/mlpsim.hh"
#include "trace/stream_source.hh"
#include "trace/trace_chunk.hh"

namespace mlpsim::core {

/** A streamed trace's annotations plus its replayable source. */
class StreamingTrace
{
  public:
    /**
     * fatal()-on-error wrapper around make(); terminates if
     * @p options fail validation.
     */
    StreamingTrace(const trace::ChunkSource &source,
                   const AnnotationOptions &options);

    /**
     * Validate @p options, then stream @p source once through the
     * annotators. The source must outlive the returned object.
     */
    static Expected<StreamingTrace>
    make(const trace::ChunkSource &source,
         const AnnotationOptions &options);

    /** Borrowing view passed to the simulators (stream-backed). */
    WorkloadContext context() const;

    const trace::ChunkSource &source() const { return *src; }
    /** Instructions actually streamed through the annotate pass. */
    uint64_t instructions() const { return numInsts; }
    const memory::MissAnnotations &misses() const { return missAnn; }
    const branch::BranchAnnotations &branches() const { return brAnn; }
    const predictor::ValueAnnotations &values() const { return valAnn; }
    const AnnotationOptions &options() const { return opts; }

  private:
    const trace::ChunkSource *src;
    AnnotationOptions opts;
    memory::MissAnnotations missAnn;
    branch::BranchAnnotations brAnn;
    predictor::ValueAnnotations valAnn;
    uint64_t numInsts = 0;
    bool hasValues = false;
};

/**
 * One prepared (annotated) trace, shared read-only by the simulator
 * runs over it, in one of two modes:
 *
 *  - materialised: `buffer` holds the whole trace, `annotated` its
 *    annotations;
 *  - streamed: `source` regenerates the trace on demand and `streamed`
 *    holds its annotations — no instruction is ever stored.
 *
 * Everything lives on the heap so the annotations' back-pointers stay
 * valid when the struct itself is moved.
 */
struct PreparedTrace
{
    std::unique_ptr<trace::TraceBuffer> buffer;
    std::unique_ptr<AnnotatedTrace> annotated;
    std::unique_ptr<trace::GeneratedChunkSource> source;
    std::unique_ptr<StreamingTrace> streamed;

    WorkloadContext
    context() const
    {
        return annotated ? annotated->context() : streamed->context();
    }
};

} // namespace mlpsim::core
