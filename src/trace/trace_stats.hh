/**
 * @file
 * Instruction-mix statistics over a trace: class counts, unique PC
 * footprint, branch/taken rates. Used by tests to check that the
 * synthetic workloads have the intended composition and by benches to
 * report what was simulated.
 */
#pragma once

#include <cstdint>

#include "trace/trace_chunk.hh"

namespace mlpsim::trace {

/** Aggregate composition of a dynamic instruction stream. */
struct TraceMix
{
    uint64_t total = 0;
    uint64_t alu = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t branches = 0;
    uint64_t takenBranches = 0;
    uint64_t prefetches = 0;
    uint64_t serializing = 0;

    double fracLoads() const { return frac(loads); }
    double fracStores() const { return frac(stores); }
    double fracBranches() const { return frac(branches); }
    double fracSerializing() const { return frac(serializing); }
    double fracPrefetches() const { return frac(prefetches); }

  private:
    double
    frac(uint64_t n) const
    {
        return total ? double(n) / double(total) : 0.0;
    }
};

/** The composition of @p source's first @p max_insts instructions
 *  (read from one stream of its chunk columns). */
TraceMix measureMix(const ChunkSource &source, uint64_t max_insts);

} // namespace mlpsim::trace
