/**
 * @file
 * Bundle of a trace plus its program-order annotations (off-chip
 * accesses, branch mispredictions, value-prediction outcomes). Built
 * once per workload/memory configuration and shared by every
 * simulator run over it.
 *
 * The trace itself comes in one of two forms: a materialised
 * TraceBuffer, or a replayable ChunkSource the simulators re-stream
 * on every run. Exactly one of `buffer` / `stream` is set. The
 * annotation planes are whole-trace and complete either way: one
 * annotate pass (core/trace_pipeline.hh) finishes before any
 * simulator reads them, so simulators running concurrently over one
 * context only ever read.
 */
#pragma once

#include "branch/branch_unit.hh"
#include "memory/access_profiler.hh"
#include "predictor/value_predictor.hh"
#include "trace/trace_buffer.hh"
#include "trace/trace_chunk.hh"

namespace mlpsim::core {

/** Everything a simulator needs to replay one workload. */
struct WorkloadContext
{
    const trace::TraceBuffer *buffer = nullptr;
    /** Streaming alternative to `buffer`: each simulator run opens a
     *  fresh chunk stream and regenerates the identical trace. */
    const trace::ChunkSource *stream = nullptr;
    /**
     * Shared-generation fan-out: a pre-opened stream this run should
     * consume instead of opening `stream` itself — typically one claimed
     * slot of a StreamFanout, so many engines ride one generation. The
     * engine takes ownership-of-consumption (drains or detaches it);
     * `stream` stays set for size()/name(). Borrowed, set per run.
     */
    trace::ChunkStream *attached = nullptr;
    const memory::MissAnnotations *misses = nullptr;
    const branch::BranchAnnotations *branches = nullptr;
    /** May be null when value prediction is not simulated. */
    const predictor::ValueAnnotations *values = nullptr;

    bool hasTrace() const { return buffer != nullptr || stream != nullptr; }

    size_t
    size() const
    {
        if (buffer)
            return buffer->size();
        return stream ? size_t(stream->size()) : 0;
    }
};

} // namespace mlpsim::core
