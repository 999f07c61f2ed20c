/**
 * @file
 * Shared cache of prepared (generated + annotated) workload traces.
 *
 * Trace generation and annotation dominate a cold sweep cell: every
 * config simulated over the same (workload, seed, warmup, budget)
 * tuple replays the *same* annotated trace, and consecutive requests
 * in a duplicate-heavy stream replay it again. The daemon therefore
 * prepares each distinct tuple once and hands out shared_ptrs to an
 * immutable core::PreparedTrace that concurrent sweep jobs read
 * without locking.
 *
 * Two tiers:
 *
 *  - an in-memory LRU of fully prepared traces (buffer + annotations),
 *    bounded by a trace count (traces are the daemon's dominant memory
 *    consumer; the default of 4 covers the three commercial workloads
 *    plus one odd seed);
 *  - an optional on-disk spill directory of *raw* trace buffers in the
 *    CRC-checked trace-file format (trace/trace_io.hh), keyed by
 *    content hash. A disk hit skips generation (the deterministic
 *    part worth persisting) and re-annotates; annotations are cheap
 *    relative to generation and depend on substrate options, so they
 *    are not spilled.
 *
 * Everything is keyed by the canonical trace-key JSON (full string,
 * collision-proof); contentHash() of it names spill files. Disk I/O
 * failures degrade to generation — a broken cache directory costs
 * time, never correctness.
 */
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/trace_pipeline.hh"
#include "util/status.hh"

namespace mlpsim::service {

class TraceCache
{
  public:
    /**
     * @param spill_dir directory for on-disk trace spill (created if
     *        missing); empty = memory-only.
     * @param capacity  in-memory LRU entry cap (≥ 1).
     */
    explicit TraceCache(std::string spill_dir = "", size_t capacity = 4);

    /**
     * Return the prepared trace for @p spec, preparing it
     * (core::PreparedTrace::make, or the same annotate step over a
     * spilled buffer) on miss. The cache key is the spec's workload,
     * seed, warm-up and budget: a daemon prepares every trace in one
     * mode and with default annotation substrates. Streamed specs
     * (streamChunk > 0) never spill — the generator IS their
     * persistent form. Fails only when the workload cannot be
     * generated or annotated — never because of spill-directory
     * trouble.
     */
    Expected<std::shared_ptr<const core::PreparedTrace>>
    get(const core::TraceSpec &spec);

    struct Stats
    {
        uint64_t memoryHits = 0;
        uint64_t diskHits = 0; //!< spilled buffer reloaded + annotated
        uint64_t builds = 0;   //!< generated from the workload model
    };

    Stats stats() const;

  private:
    std::string spillPath(const std::string &canonical) const;

    mutable std::mutex mutex;
    std::string dir; //!< empty = no spill tier
    size_t capacityLimit;

    /** LRU: most recently used at the front. */
    std::list<std::pair<std::string,
                        std::shared_ptr<const core::PreparedTrace>>>
        entries;
    std::unordered_map<std::string, decltype(entries)::iterator> index;

    Stats counters;
};

} // namespace mlpsim::service
