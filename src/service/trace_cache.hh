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
     * @param stream_chunk non-zero: prepare traces in streamed mode
     *        with this chunk capacity instead of materialising them.
     *        Streamed traces never spill (regeneration replaces
     *        storage — the generator IS the persistent form).
     */
    explicit TraceCache(std::string spill_dir = "",
                        size_t capacity = 4, uint32_t stream_chunk = 0);

    /** The preparation identity (what the cache is keyed on). */
    struct Key
    {
        std::string workload;
        uint64_t seed = 0;
        uint64_t warmup = 0;
        uint64_t insts = 0; //!< measured instructions (total = +warmup)

        /** Canonical JSON string form (map key; hash input). */
        std::string canonical() const;
    };

    /**
     * Return the prepared trace for @p key, preparing (or loading and
     * re-annotating a spilled buffer) on miss. Fails only when the
     * workload cannot be generated or annotated — never because of
     * spill-directory trouble.
     */
    Expected<std::shared_ptr<const core::PreparedTrace>>
    get(const Key &key);

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
    std::string dir;      //!< empty = no spill tier
    size_t capacityLimit;
    uint32_t streamChunk; //!< 0 = materialise

    /** LRU: most recently used at the front. */
    std::list<std::pair<std::string,
                        std::shared_ptr<const core::PreparedTrace>>>
        entries;
    std::unordered_map<std::string, decltype(entries)::iterator> index;

    Stats counters;
};

} // namespace mlpsim::service
