/**
 * @file
 * The generator interface: every workload generator is a TraceSource.
 *
 * A generator emits its instruction stream one instruction at a time
 * and cannot rewind. Replay is by seed: two generators built with the
 * same seed emit the same stream, and every trace consumer reads chunks
 * through a ChunkSource (trace_chunk.hh) — a TraceBuffer filled from a
 * generator, or a GeneratedChunkSource that builds a fresh generator
 * per stream (stream_source.hh).
 */
#pragma once

#include <string>

#include "trace/instruction.hh"

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

    /** Human-readable name for reports. */
    virtual std::string name() const = 0;
};

} // namespace mlpsim::trace
