/**
 * @file
 * The annotate pass, and the prepared trace it produces.
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

#include <memory>

#include "core/mlpsim.hh"
#include "trace/stream_source.hh"

namespace mlpsim::core {

/** AnnotatedTrace under its streamed-mode name, which
 *  perfbench/mlpbench.cc still uses. */
using StreamingTrace = AnnotatedTrace;

/**
 * One prepared (annotated) trace, shared read-only by the simulator
 * runs over it. It owns its trace in one of two forms — `buffer`
 * holds the whole materialised trace, or `source` regenerates it on
 * demand and no instruction is ever stored — and `annotated` holds the
 * annotations of whichever is set; annotated->context() is what the
 * simulators read.
 *
 * Everything lives on the heap so the annotations' back-pointers stay
 * valid when the struct itself is moved.
 */
struct PreparedTrace
{
    std::unique_ptr<trace::TraceBuffer> buffer;
    std::unique_ptr<trace::GeneratedChunkSource> source;
    std::unique_ptr<AnnotatedTrace> annotated;
};

} // namespace mlpsim::core
