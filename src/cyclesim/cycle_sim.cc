#include "cycle_sim.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "core/chunk_window.hh"
#include "metrics/registry.hh"
#include "util/cancellation.hh"
#include "util/logging.hh"

namespace mlpsim::cyclesim {

using core::IssueConfig;

Status
CycleSimConfig::validate() const
{
    if (issue != IssueConfig::A && issue != IssueConfig::B &&
        issue != IssueConfig::C) {
        return Status::invalidArgument(
            "the cycle simulator supports issue configs A-C only "
            "(like the paper's reference simulator)");
    }
    if (fetchWidth == 0 || dispatchWidth == 0 || issueWidth == 0 ||
        commitWidth == 0) {
        return Status::invalidArgument(
            "pipeline widths must be >= 1 (fetch ", fetchWidth,
            ", dispatch ", dispatchWidth, ", issue ", issueWidth,
            ", commit ", commitWidth, ")");
    }
    if (fetchBufferSize == 0 || issueWindowSize == 0 || robSize == 0) {
        return Status::invalidArgument(
            "window structures must be non-empty (fetch buffer ",
            fetchBufferSize, ", issue window ", issueWindowSize,
            ", ROB ", robSize, ")");
    }
    if (aluLatency == 0 || l1Latency == 0 || l2Latency == 0 ||
        offChipLatency == 0) {
        return Status::invalidArgument(
            "execution latencies must be >= 1 so a value is never "
            "consumed in the cycle that produces it (alu ", aluLatency,
            ", l1 ", l1Latency, ", l2 ", l2Latency, ", off-chip ",
            offChipLatency, ")");
    }
    if (std::max({aluLatency, l1Latency, l2Latency, offChipLatency}) >
        maxLatency) {
        return Status::invalidArgument(
            "execution latencies must be <= ", maxLatency,
            " cycles (alu ", aluLatency, ", l1 ", l1Latency, ", l2 ",
            l2Latency, ", off-chip ", offChipLatency, ")");
    }
    return Status::okStatus();
}

std::string
CycleSimConfig::metricLabel() const
{
    std::string out = "cyc" + std::to_string(issueWindowSize) +
                      core::issueConfigName(issue);
    if (robSize != issueWindowSize)
        out += "-rob" + std::to_string(robSize);
    out += "-mp" + std::to_string(offChipLatency);
    if (perfectL2)
        out += "+perfL2";
    return out;
}


namespace {

using trace::InstClass;

/**
 * Issue slots taken per cycle, for every cycle in which an instruction
 * not yet stamped may still issue. Issue is oldest-first, so an
 * instruction issues in the first cycle at or after its ready cycle
 * that older instructions left below the issue width. An instruction
 * issues after it dispatches and dispatch cycles never fall, so every
 * cycle up to the current dispatch cycle is dead: each slot is tagged
 * with its cycle, a live cycle takes over any slot whose cycle is
 * dead, and the ring doubles when two live cycles collide.
 */
class IssueSlots
{
  public:
    explicit IssueSlots(uint64_t first_size)
        : slots(std::bit_ceil(std::max<uint64_t>(first_size, 64))),
          mask(slots.size() - 1)
    {
    }

    /** Take a slot in the first cycle at or after @p ready with fewer
     *  than @p width taken; cycles up to @p dead are dead. */
    uint64_t
    take(uint64_t ready, uint64_t dead, unsigned width)
    {
        for (uint64_t cycle = ready;;) {
            Slot &slot = slots[cycle & mask];
            if (slot.cycle != cycle) {
                if (slot.cycle > dead) {
                    grow(dead);
                    continue;
                }
                slot = Slot{cycle, 0};
            }
            if (slot.taken < width) {
                ++slot.taken;
                return cycle;
            }
            ++cycle;
        }
    }

  private:
    struct Slot
    {
        uint64_t cycle = 0;
        uint32_t taken = 0;
    };

    void
    grow(uint64_t dead)
    {
        // Live cycles distinct modulo n stay distinct modulo 2n.
        std::vector<Slot> next(slots.size() * 2);
        mask = next.size() - 1;
        for (const Slot &slot : slots) {
            if (slot.cycle > dead)
                next[slot.cycle & mask] = slot;
        }
        slots.swap(next);
    }

    std::vector<Slot> slots;
    uint64_t mask;
};

/**
 * MLP(t) over the measured cycles [lo, hi). Each useful off-chip
 * access is outstanding over [start, start + latency), so the sum of
 * MLP(t) is the summed length of those intervals clipped to [lo, hi)
 * and the cycles with MLP(t) > 0 are their union's length. All
 * intervals are equally long, so folding them in ascending start
 * order sweeps the union with one running end. Starts arrive out of
 * order (a data access starts when its instruction issues), so they
 * wait in a min-heap until no later start can be smaller and they end
 * before hi: the heap holds the last few hundred instructions'
 * accesses, never the trace's.
 */
class OffChipIntervals
{
  public:
    explicit OffChipIntervals(uint64_t access_latency)
        : latency(access_latency)
    {
    }

    void add(uint64_t start) { pending.push(start); }

    /** Measurement starts at cycle @p lo_cycle. */
    void
    measureFrom(uint64_t lo_cycle)
    {
        measuring = true;
        lo = lo_cycle;
    }

    /** Fold every pending access that starts at or before @p frontier,
     *  below which no later access starts, and ends by @p horizon, a
     *  lower bound on hi (and on lo while measurement has not begun). */
    void
    settle(uint64_t frontier, uint64_t horizon)
    {
        while (!pending.empty() && pending.top() <= frontier &&
               pending.top() + latency <= horizon) {
            fold(pending.top(), pending.top() + latency);
            pending.pop();
        }
    }

    /** Fold the rest, clipped to end at @p hi, into @p result. */
    void
    finish(uint64_t hi, CycleSimResult &result)
    {
        for (; !pending.empty(); pending.pop())
            fold(pending.top(), std::min(pending.top() + latency, hi));
        // A cycle loop sums MLP(t) in a double, one integer product at
        // a time; below 2^53 every partial sum is exact, so one
        // conversion gives the same bits.
        result.mlpSum = double(sum);
        result.mlpCycles = covered;
    }

  private:
    void
    fold(uint64_t start, uint64_t end)
    {
        const uint64_t from = std::max(start, lo);
        if (!measuring || end <= from)
            return; // an access folded before measuring ends by lo
        sum += end - from;
        covered += end - std::min(end, std::max(from, coveredEnd));
        coveredEnd = std::max(coveredEnd, end);
    }

    const uint64_t latency;
    std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<>>
        pending;
    bool measuring = false;
    uint64_t lo = 0;
    uint64_t coveredEnd = 0; //!< the union so far ends here
    uint64_t sum = 0;
    uint64_t covered = 0;
};

/** The cycles a younger instruction reads of an older one. */
struct Stamp
{
    uint64_t fetchNext = 0; //!< fetch cycle + 1
    uint64_t dispatch = 0;
    uint64_t done = 0;      //!< issue + latency: the value is available
    uint64_t commit = 0;
    uint64_t storeKey = 0;  //!< address key + 1 of a store or atomic
    uint64_t prevStore = 0; //!< index + 1 of the previous such in its
                            //!< address bucket
};

/**
 * One program-order pass over the trace (DESIGN.md section 14). A
 * cycle-by-cycle pipeline (the reference copy in cycle_sim_test.cpp)
 * runs commit, issue, dispatch and fetch, in that order, in every
 * cycle in which any of them can act. So instruction i is fetched in
 * F(i), dispatched in D(i), issued in I(i), done in C(i) and committed
 * in K(i), where (a term whose index is negative drops out):
 *
 *   F(i) = max(F(i-1), F(i-fetchWidth) + 1, D(i-fetchBufferSize),
 *              C(b) + branchRedirectPenalty for the last mispredicted
 *              branch b < i); an instruction miss starts its access
 *              in that cycle and F(i) is the cycle it returns;
 *   D(i) = max(F(i) + 1, D(i-1), D(i-dispatchWidth) + 1,
 *              K(i-robSize), K(s) for the last serializing s < i,
 *              K(i-1) if i serializes, and the issueWindowSize-th
 *              largest I(j) over j < i);
 *   I(i) = the first cycle at or after R(i) in which fewer than
 *          issueWidth older instructions issued, where R(i) =
 *          max(D(i) + 1, C of each source register's and the
 *          forwarding store's newest older writer; config A memory
 *          ops: I of the previous memory op; branches: I of the
 *          previous branch; config B loads: the cycle by which every
 *          older store's address producers are done);
 *   C(i) = I(i) + latency;
 *   K(i) = max(C(i), K(i-1), K(i-commitWidth) + 1).
 *
 * Every term reads only older instructions: fetch, dispatch and
 * commit are in order, and issue is oldest-first, so a younger
 * instruction never takes an older one's issue slot. A writer that
 * has committed by D(i) has C <= K <= D(i) < I(i), so reading the
 * newest writer whether or not it is still in flight changes nothing.
 * An instruction a ROB or more back has committed by D(i), so neither
 * has a store that far back anything to forward.
 */
class Pass
{
  public:
    Pass(const CycleSimConfig &config, const core::WorkloadContext &wl)
        : cfg(config), misses(*wl.misses), branches(*wl.branches),
          stampMask(std::bit_ceil(uint64_t(std::max(
                        {cfg.fetchWidth, cfg.dispatchWidth,
                         cfg.commitWidth, cfg.fetchBufferSize,
                         cfg.robSize})) + 1) - 1),
          stamps(stampMask + 1),
          issueSlots(uint64_t(std::max({cfg.aluLatency, cfg.l1Latency,
                                        cfg.l2Latency,
                                        cfg.offChipLatency})) + 1),
          offChip(cfg.offChipLatency),
          bucketMask(std::bit_ceil(2 * uint64_t(cfg.robSize)) - 1),
          storeHeads(bucketMask + 1),
          missLatency(cfg.perfectL2 ? cfg.l2Latency : cfg.offChipLatency)
    {
        if (cfg.warmupInsts == 0)
            offChip.measureFrom(0);
    }

    /** Stamp instruction @p idx, row @p ci of chunk @p ck. */
    void
    step(const trace::TraceChunk &ck, uint32_t ci, uint64_t idx)
    {
        // Before the ring wraps, a slot not yet written reads as all
        // zeros, which no term below can raise.
        const auto back = [&](uint64_t distance) -> const Stamp & {
            return stamps[(idx - distance) & stampMask];
        };
        const InstClass cls = ck.cls(ci);
        const uint64_t addr_key = ck.effAddr[ci] >> 3;
        const bool serializing = cls == InstClass::Serializing;
        const bool atomic = serializing && ck.effAddr[ci] != 0;
        const bool prefetch = cls == InstClass::Prefetch;
        const bool load_like = cls == InstClass::Load || prefetch || atomic;
        const bool store = cls == InstClass::Store;
        const bool branch = cls == InstClass::Branch;
        const bool in_order_mem =
            cfg.issue == IssueConfig::A && (load_like || store);

        uint64_t fetch =
            std::max({lastFetch, back(cfg.fetchWidth).fetchNext,
                      back(cfg.fetchBufferSize).dispatch, redirect});
        if (misses.fetchMiss(idx)) {
            if (!cfg.perfectL2)
                recordOffChip(idx, fetch);
            fetch += missLatency;
        }

        uint64_t dispatch = std::max(
            {fetch + 1, lastDispatch, back(cfg.dispatchWidth).dispatch + 1,
             back(cfg.robSize).commit, drain});
        if (serializing)
            dispatch = std::max(dispatch, lastCommit);
        if (olderIssues.size() == cfg.issueWindowSize)
            dispatch = std::max(dispatch, olderIssues.top());

        const uint8_t src0 = ck.src0[ci];
        const uint8_t src2 = ck.src2[ci];
        uint64_t ready = std::max({dispatch + 1, regDone[src0],
                                   regDone[ck.src1[ci]], regDone[src2]});
        if (load_like && !prefetch) {
            // The newest older store to the address, if less than a
            // ROB back.
            for (uint64_t s = storeHeads[bucketOf(addr_key)];
                 s != 0 && s + cfg.robSize > idx + 1;
                 s = stamps[(s - 1) & stampMask].prevStore) {
                const Stamp &older = stamps[(s - 1) & stampMask];
                if (older.storeKey == addr_key + 1) {
                    ready = std::max(ready, older.done);
                    break;
                }
            }
        }
        if (in_order_mem)
            ready = std::max(ready, lastMemIssue);
        if (branch)
            ready = std::max(ready, lastBranchIssue);
        if (cfg.issue == IssueConfig::B && load_like)
            ready = std::max(ready, storeAddrsDone);
        const uint64_t issue =
            issueSlots.take(ready, dispatch, cfg.issueWidth);

        const bool data_miss = misses.dataMiss(idx);
        unsigned latency = cfg.aluLatency;
        if (prefetch) {
            latency = 1; // prefetches are fire-and-forget
        } else if (load_like) {
            latency = data_miss             ? missLatency
                      : misses.dataL2Hit(idx) ? cfg.l2Latency
                                              : cfg.l1Latency;
        }
        const uint64_t done = issue + latency;
        if (!cfg.perfectL2 && (data_miss || misses.usefulPrefetch(idx)))
            recordOffChip(idx, issue);
        if (branch && branches.isMispredict(idx)) {
            // Trace-driven wrong path: fetch waits for the branch to
            // resolve, then pays the redirect.
            redirect = done + cfg.branchRedirectPenalty;
        }
        const uint64_t commit = std::max(
            {done, lastCommit, back(cfg.commitWidth).commit + 1});

        // What younger instructions read of this one. A store's
        // address is known once src0 and src2 are (src1 is its data).
        if (store)
            storeAddrsDone = std::max(
                {storeAddrsDone, regDone[src0], regDone[src2]});
        if (ck.dst[ci] != trace::noReg)
            regDone[ck.dst[ci]] = done;
        Stamp &self = stamps[idx & stampMask];
        self = Stamp{fetch + 1, dispatch, done, commit, 0, 0};
        if (store || atomic) {
            self.storeKey = addr_key + 1;
            self.prevStore =
                std::exchange(storeHeads[bucketOf(addr_key)], idx + 1);
        }
        if (serializing)
            drain = commit;
        if (in_order_mem)
            lastMemIssue = issue;
        if (branch)
            lastBranchIssue = issue;
        if (cfg.issueWindowSize < cfg.robSize) {
            // Keep the issueWindowSize largest issue cycles so far.
            olderIssues.push(issue);
            if (olderIssues.size() > cfg.issueWindowSize)
                olderIssues.pop();
        }
        lastFetch = fetch;
        lastDispatch = dispatch;
        lastCommit = commit;

        if (idx + 1 == cfg.warmupInsts) {
            measureStart = commit;
            offChip.measureFrom(commit);
        }
        // Every later access starts at or after F(i): an instruction
        // miss where a later fetch begins, a data access after a later
        // dispatch. And hi > K(i).
        offChip.settle(fetch, commit);
    }

    /** Measurements once all @p size instructions are stamped. */
    CycleSimResult
    finish(uint64_t size)
    {
        CycleSimResult result;
        // The last cycle commits the last instruction. A warm-up at or
        // past the end of the trace measures nothing (guarded like
        // epoch_engine.cc, instead of wrapping to ~2^64).
        const uint64_t end = size ? lastCommit + 1 : 0;
        if (cfg.warmupInsts <= size)
            result.cycles = end - measureStart;
        result.instructions =
            size > cfg.warmupInsts ? size - cfg.warmupInsts : 0;
        result.offChipAccesses = offChipAccesses;
        offChip.finish(end, result);
        return result;
    }

  private:
    uint64_t
    bucketOf(uint64_t addr_key) const
    {
        // Multiply-shift (Fibonacci) hash, as the epoch engine's.
        return (addr_key * 0x9E3779B97F4A7C15ull >> 32) & bucketMask;
    }

    void
    recordOffChip(uint64_t idx, uint64_t start)
    {
        offChip.add(start);
        if (idx >= cfg.warmupInsts)
            ++offChipAccesses;
    }

    const CycleSimConfig &cfg;
    const memory::MissAnnotations &misses;
    const branch::BranchAnnotations &branches;

    // Stamps up to a ROB, fetch buffer or width back, at idx &
    // stampMask.
    const uint64_t stampMask;
    std::vector<Stamp> stamps;
    IssueSlots issueSlots;
    OffChipIntervals offChip;

    // Done cycle of each register's newest writer (noReg stays 0).
    std::array<uint64_t, 256> regDone{};
    // Index + 1 of the newest store or atomic per address-key bucket,
    // chained through the stamps to the previous one in its bucket. A
    // chain is walked only while it is less than a ROB back, so
    // nothing is ever erased.
    const uint64_t bucketMask;
    std::vector<uint64_t> storeHeads;

    // The issueWindowSize largest older issue cycles, smallest on
    // top; kept only when the issue window is smaller than the ROB.
    std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<>>
        olderIssues;

    const unsigned missLatency; //!< an off-chip access, or a perfect L2

    uint64_t lastFetch = 0;
    uint64_t lastDispatch = 0;
    uint64_t lastCommit = 0;
    uint64_t redirect = 0;        //!< fetch resumes after a mispredict
    uint64_t drain = 0;           //!< last serializing instruction's K
    uint64_t lastMemIssue = 0;    //!< config A
    uint64_t lastBranchIssue = 0;
    uint64_t storeAddrsDone = 0;  //!< config B
    uint64_t measureStart = 0;
    uint64_t offChipAccesses = 0;
};

} // namespace

CycleSim::CycleSim(const CycleSimConfig &config,
                   const core::WorkloadContext &workload)
    : cfg(config), wl(workload)
{
    MLPSIM_ASSERT(wl.hasTrace() && wl.misses && wl.branches,
                  "workload context incomplete");
    const Status valid = cfg.validate();
    MLPSIM_ASSERT(valid.ok(), valid.message());
}

CycleSimResult
CycleSim::run()
{
    const uint64_t size = wl.size();
    Pass pass(cfg, wl);
    core::ChunkWindow window(wl);
    for (uint64_t idx = 0; idx < size;) {
        const trace::ChunkPtr chunk = window.chunkFor(idx);
        for (uint32_t ci = uint32_t(idx - chunk->base); ci < chunk->count;
             ++ci, ++idx) {
            if ((idx & 0xFFFF) == 0)
                pollCancellation();
            pass.step(*chunk, ci, idx);
        }
        // The pass never reads behind idx: a streamed window drops the
        // chunk.
        window.releaseBefore(idx);
    }
    const CycleSimResult result = pass.finish(size);

    if (metrics::enabled()) {
        auto &m = metrics::cur();
        m.add(metrics::scopedPath("cyclesim/runs"));
        m.add(metrics::scopedPath("cyclesim/cycles"), result.cycles);
        m.add(metrics::scopedPath("cyclesim/instructions"),
              result.instructions);
        m.add(metrics::scopedPath("cyclesim/offchip_accesses"),
              result.offChipAccesses);
        m.add(metrics::scopedPath("cyclesim/mlp_cycles"),
              result.mlpCycles);
        m.set(metrics::scopedPath("cyclesim/cpi"), result.cpi());
        m.set(metrics::scopedPath("cyclesim/mlp"), result.mlp());
    }
    return result;
}

} // namespace mlpsim::cyclesim
