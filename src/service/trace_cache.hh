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
 * One tier: an in-memory LRU of fully prepared traces, bounded by a
 * trace count (traces are the daemon's dominant memory consumer; the
 * default of 4 covers the three commercial workloads plus one odd
 * seed). Traces are never persisted: regenerating one measured several
 * times faster than reading it back from a file (EXPERIMENTS.md,
 * "Persist results, not traces"), so a restarted daemon rebuilds its
 * traces and keeps only its results on disk (service/result_cache.hh).
 *
 * Entries are keyed by the canonical trace-key JSON of the spec (the
 * full string, so collisions are impossible).
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
    /** @param capacity LRU entry cap; 0 is treated as 1. */
    explicit TraceCache(size_t capacity = 4);

    /**
     * Return the prepared trace for @p spec, preparing it with
     * core::PreparedTrace::make on miss. The cache key is the spec's
     * workload, seed, warm-up and budget: a daemon prepares every
     * trace in one mode and with default annotation substrates. Fails
     * only when the workload cannot be generated or annotated; a
     * failure caches nothing.
     */
    Expected<std::shared_ptr<const core::PreparedTrace>>
    get(const core::TraceSpec &spec);

    /**
     * True if @p spec's trace is cached, so get() would not build.
     * Neither counts as a lookup nor touches the LRU order.
     */
    bool contains(const core::TraceSpec &spec) const;

    struct Stats
    {
        uint64_t memoryHits = 0;
        /** Always 0 (traces are never persisted); kept because
         *  perfbench/mlpbench.cc reads it. */
        uint64_t diskHits = 0;
        uint64_t builds = 0; //!< prepared by PreparedTrace::make
    };

    Stats stats() const;

  private:
    mutable std::mutex mutex;
    size_t capacityLimit;

    /** LRU: most recently used at the front. */
    std::list<std::pair<std::string,
                        std::shared_ptr<const core::PreparedTrace>>>
        entries;
    std::unordered_map<std::string, decltype(entries)::iterator> index;

    Stats counters;
};

} // namespace mlpsim::service
