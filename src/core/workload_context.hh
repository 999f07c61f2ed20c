/**
 * @file
 * Bundle of a trace plus its program-order annotations (off-chip
 * accesses, branch mispredictions, value-prediction outcomes). Built
 * once per workload/memory configuration and shared by every
 * simulator run over it.
 *
 * The trace is one handle, a replayable ChunkSource: either a
 * materialised TraceBuffer, which simulators index directly
 * (ChunkSource::materialized()), or a generator the simulators
 * re-stream on every run. The annotation planes are whole-trace and
 * complete either way: one annotate pass (core/trace_pipeline.hh)
 * finishes before any simulator reads them, so simulators running
 * concurrently over one context only ever read.
 */
#pragma once

#include "branch/branch_unit.hh"
#include "memory/access_profiler.hh"
#include "predictor/value_predictor.hh"
#include "trace/trace_chunk.hh"

namespace mlpsim::core {

/** Everything a simulator needs to replay one workload. */
struct WorkloadContext
{
    /** The trace. Each simulator run reads a materialised source in
     *  place and opens a fresh stream over any other. */
    const trace::ChunkSource *source = nullptr;
    /**
     * Shared-generation fan-out: a pre-opened stream this run should
     * consume instead of opening `source` itself — typically one
     * claimed slot of a StreamFanout, so many engines ride one
     * generation. The engine takes ownership-of-consumption (drains or
     * detaches it); `source` stays set for size()/name(). Borrowed,
     * set per run.
     */
    trace::ChunkStream *attached = nullptr;
    const memory::MissAnnotations *misses = nullptr;
    const branch::BranchAnnotations *branches = nullptr;
    /** May be null when value prediction is not simulated. */
    const predictor::ValueAnnotations *values = nullptr;

    bool hasTrace() const { return source != nullptr; }
    size_t size() const { return source ? size_t(source->size()) : 0; }
};

} // namespace mlpsim::core
