/**
 * @file
 * Program-order memory-system profiling of a trace.
 *
 * The profiler replays a trace through a CacheHierarchy exactly once,
 * in program order, and records for every dynamic instruction whether
 * (a) fetching it required an off-chip instruction access, (b) its data
 * access went off-chip, and (c) — for software prefetches — whether the
 * prefetched line was touched by a later demand load or instruction
 * fetch before being evicted from the L2 (the paper's "useful"
 * criterion, Section 2.1).
 *
 * Both the epoch-model simulator and the cycle-accurate reference
 * consume these annotations, so the two see the identical set of
 * off-chip accesses; any MLP difference between them is then purely a
 * property of the window/termination modelling, which is what Table 3
 * validates.
 */
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "memory/hierarchy.hh"
#include "trace/trace_buffer.hh"
#include "trace/trace_chunk.hh"
#include "util/bitvec.hh"
#include "util/stats.hh"

namespace mlpsim::memory {

/**
 * Off-chip behaviour of one trace under one hierarchy configuration.
 *
 * Stored as one bit-vector per flag (structure-of-arrays) rather than
 * one flag byte per instruction: simulators consult two or three of
 * these per replayed instruction, and the bit-vectors keep a
 * multi-million-instruction trace's annotations within a few hundred
 * kilobytes of cache-resident state.
 */
class MissAnnotations
{
  public:
    /** Fetching instruction @p i went off-chip. */
    bool fetchMiss(size_t i) const { return fetchMissV.test(i); }

    /** Instruction @p i's data access went off-chip. */
    bool dataMiss(size_t i) const { return dataMissV.test(i); }

    /** Prefetch @p i went off-chip and was later used. */
    bool usefulPrefetch(size_t i) const { return usefulPrefetchV.test(i); }

    /** Data access missed the L1 but hit the L2 (an on-chip latency
     *  distinction only the cycle-accurate simulator cares about). */
    bool dataL2Hit(size_t i) const { return dataL2HitV.test(i); }

    /** A store whose write-allocate fill goes off-chip. Not part of
     *  the paper's MLP definition; used by the store-MLP extension
     *  (the paper's stated future work). */
    bool storeMiss(size_t i) const { return storeMissV.test(i); }

    /** Does instruction @p i perform any useful off-chip access? */
    bool
    anyUseful(size_t i) const
    {
        return fetchMiss(i) || dataMiss(i) || usefulPrefetch(i);
    }

    /** Number of useful off-chip accesses instruction @p i performs. */
    unsigned
    usefulCount(size_t i) const
    {
        return unsigned(fetchMiss(i)) + unsigned(dataMiss(i)) +
               unsigned(usefulPrefetch(i));
    }

    size_t size() const { return fetchMissV.size(); }

    // Whole planes, for word-at-a-time scans (BitVector::word).
    const util::BitVector &fetchMissBits() const { return fetchMissV; }
    const util::BitVector &dataMissBits() const { return dataMissV; }
    const util::BitVector &usefulPrefetchBits() const
    {
        return usefulPrefetchV;
    }
    const util::BitVector &storeMissBits() const { return storeMissV; }

    // --- direct construction (tests and external trace frontends) ---

    /** Start a hand-built annotation set of @p n instructions. */
    void
    resetForBuild(size_t n)
    {
        *this = MissAnnotations{};
        resetVectors(n);
        measuredInsts = n;
    }

    void
    markFetchMiss(size_t i)
    {
        fetchMissV.set(i);
        ++fetchMisses;
    }

    void
    markDataMiss(size_t i)
    {
        dataMissV.set(i);
        ++loadMisses;
    }

    void
    markUsefulPrefetch(size_t i)
    {
        usefulPrefetchV.set(i);
        ++usefulPrefetches;
    }

    void
    markStoreMiss(size_t i)
    {
        storeMissV.set(i);
        ++storeMisses;
    }

    uint64_t measuredInsts = 0;     //!< instructions after warm-up
    uint64_t storeMisses = 0;       //!< off-chip store fills (extension)
    uint64_t fetchMisses = 0;       //!< off-chip instruction fetches
    uint64_t loadMisses = 0;        //!< off-chip demand loads
    uint64_t usefulPrefetches = 0;  //!< off-chip useful prefetches
    uint64_t uselessPrefetches = 0; //!< off-chip prefetches never used

    /** All useful off-chip accesses. */
    uint64_t
    usefulAccesses() const
    {
        return fetchMisses + loadMisses + usefulPrefetches;
    }

    /** Useful off-chip accesses per 100 instructions. */
    double missRatePer100() const;

    /** Histogram of dynamic-instruction distances between consecutive
     *  useful off-chip accesses (Figure 2). */
    Histogram interMissDistance;

  private:
    friend class AccessProfiler;

    void
    resetVectors(size_t n)
    {
        fetchMissV.assign(n, false);
        dataMissV.assign(n, false);
        usefulPrefetchV.assign(n, false);
        dataL2HitV.assign(n, false);
        storeMissV.assign(n, false);
    }

    util::BitVector fetchMissV;
    util::BitVector dataMissV;
    util::BitVector usefulPrefetchV;
    util::BitVector dataL2HitV;
    util::BitVector storeMissV;
};

/** Configuration of a profiling pass. */
struct ProfileConfig
{
    HierarchyConfig hierarchy;
    /** Instructions excluded from the statistics (cache warm-up). */
    uint64_t warmupInsts = 0;
};

/**
 * Runs the single-pass profile described in the file comment.
 *
 * The profiler is chunk-incremental: the annotate pass
 * (core/trace_pipeline.hh) feeds it one TraceChunk at a time with
 * add(), for materialised and streamed traces alike, and takes the
 * completed annotations with finish(). The cache hierarchy, the
 * pending-prefetch ledger and the inter-miss tracker all carry across
 * chunk boundaries, so the result is bit-identical for any chunking —
 * profile() is the same code walking a materialised buffer's chunks.
 * A demand touch credits a *pending* prefetch retroactively
 * (usefulPrefetchV at an arbitrarily older index), which is why
 * annotation planes are whole-trace state completed before any
 * simulator runs, rather than per-chunk metadata.
 */
class AccessProfiler
{
  public:
    explicit AccessProfiler(const ProfileConfig &config)
        : cfg(config), mem(config.hierarchy)
    {
    }

    /** Feed the next chunk of the trace, in order. */
    void add(const trace::TraceChunk &chunk);

    /** Complete the pass: totals, metrics export, annotations out.
     *  The profiler is spent afterwards. */
    MissAnnotations finish();

    /**
     * The in-progress annotations. For every chunk already add()ed,
     * the fetch/data/store-miss and L2-hit planes are final — only
     * usefulPrefetchV may still flip retroactively — so downstream
     * chunk-incremental annotators (the value annotator) may read
     * those planes at the indices of the chunk just fed.
     */
    const MissAnnotations &partial() const { return ann; }

    /** One-shot convenience: profile @p buffer and return its
     *  annotations (a fresh add()/finish() pass over its chunks). */
    MissAnnotations profile(const trace::TraceBuffer &buffer) const;

  private:
    void recordUseful(size_t i);
    void creditDemandTouch(uint64_t addr);

    ProfileConfig cfg;
    CacheHierarchy mem;
    MissAnnotations ann;

    /** Outstanding off-chip prefetches: L2 line address -> index of
     *  the prefetch instruction. Credited on first later demand
     *  touch, cancelled if the line is evicted from the L2 first. */
    std::unordered_map<uint64_t, size_t> pendingPrefetches;

    uint64_t lastFetchLine = ~0ULL;
    uint64_t lastUsefulIndex = 0;
    bool haveUseful = false;

    /** Per-chunk interest mask scratch (trace/chunk_scan.hh). */
    std::vector<uint64_t> scanMask;
};

} // namespace mlpsim::memory
