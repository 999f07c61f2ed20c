/**
 * @file
 * Streaming interface every trace producer implements.
 *
 * Simulators pull instructions one at a time; reset() restarts the
 * stream from the beginning so one workload object can be replayed
 * across many processor configurations deterministically.
 */
#pragma once

#include <string>

#include "trace/instruction.hh"

namespace mlpsim::trace {

/** Abstract producer of a dynamic instruction stream. */
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

    /** Restart the stream from its first instruction. */
    virtual void reset() = 0;

    /** Human-readable name for reports. */
    virtual std::string name() const = 0;
};

} // namespace mlpsim::trace
