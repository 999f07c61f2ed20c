/**
 * @file
 * The generator interface: every workload generator is a TraceSource.
 *
 * A generator emits its instruction stream in order, one instruction
 * (next()) or one batch straight into chunk columns (nextBatch()) at
 * a time, and cannot rewind. Replay is by seed: two generators built
 * with the same seed emit the same stream, and every trace consumer
 * reads chunks through a ChunkSource (trace_chunk.hh) — a TraceBuffer
 * filled from a generator, or a GeneratedChunkSource that builds a
 * fresh generator per stream (stream_source.hh).
 */
#pragma once

#include <string>

#include "trace/instruction.hh"
#include "trace/trace_chunk.hh"

namespace mlpsim::trace {

/** Abstract generator of a dynamic instruction stream. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next instruction.
     * @param inst Filled in on success.
     * @retval true an instruction was produced.
     * @retval false the stream is exhausted.
     */
    virtual bool next(Instruction &inst) = 0;

    /**
     * Append up to @p max (at most out.room()) next instructions to
     * @p out: the same stream next() yields, so the two calls may be
     * mixed. Returns how many were appended, fewer than @p max only
     * when the stream is exhausted. This default calls next() per
     * instruction; generators override it to emit a batch per call.
     */
    virtual uint32_t
    nextBatch(ChunkFiller &out, uint32_t max)
    {
        Instruction inst;
        uint32_t n = 0;
        while (n < max && next(inst)) {
            out.append(inst);
            ++n;
        }
        return n;
    }

    /** Human-readable name for reports. */
    virtual std::string name() const = 0;
};

} // namespace mlpsim::trace
