#include "epoch_engine.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>
#include <vector>

#include "core/chunk_window.hh"
#include "metrics/registry.hh"
#include "util/cancellation.hh"
#include "util/logging.hh"

namespace mlpsim::core {

using trace::InstClass;

namespace {

/**
 * A point in the machine's life: the epoch in the upper 32 bits, the
 * step (loop iteration) within it in the lower 32, so plain integer
 * order is time order. Epochs count from 1; time 0 precedes
 * everything.
 */
using Time = uint64_t;

constexpr Time kNever = ~Time(0);
constexpr uint64_t kNone = ~uint64_t(0);

constexpr uint64_t epochOf(Time t) { return t >> 32; }
constexpr uint32_t stepOf(Time t) { return uint32_t(t); }
constexpr Time epochStart(uint64_t epoch) { return epoch << 32; }
constexpr Time nextEpoch(Time t) { return epochStart(epochOf(t) + 1); }

/**
 * First index in [from, limit) whose bit is set in the word stream
 * @p word (word w covers indices [64w, 64w + 64)), or @p limit.
 */
template <typename WordFn>
uint64_t
firstSetBit(uint64_t from, uint64_t limit, WordFn &&word)
{
    if (from >= limit)
        return limit;
    uint64_t w = from >> 6;
    const uint64_t last = (limit - 1) >> 6;
    uint64_t bits = word(w) & (~uint64_t(0) << (from & 63));
    while (bits == 0) {
        if (w == last)
            return limit;
        bits = word(++w);
    }
    return std::min(limit, (w << 6) + uint64_t(std::countr_zero(bits)));
}

/** What a younger store-to-load forwarding reads of a store. */
struct StoreStamp
{
    uint64_t key = 0;  //!< address key + 1
    uint64_t prev = 0; //!< index + 1 of the previous store in its bucket
    Time value = 0;
};

/** Why fetch was stopped when an epoch closed. */
enum class FetchStop : uint8_t { None, Serialize, Mispred };

/** One epoch's bookkeeping until the pass has fetched past it. */
struct EpochRecord
{
    uint64_t trigger = kNone;  //!< its lowest-index off-chip access
    Time openAt = kNever;      //!< when the trigger opened it
    Time loadMissAt = kNever;  //!< first data or store miss (runahead)
    uint64_t fetchEnd = kNone; //!< first index fetched after it
    uint64_t dispatchEnd = kNone; //!< first index dispatched after it
    uint32_t busyEnd = 0;      //!< 1 + its last step that made progress
    uint32_t accesses = 0, dmiss = 0, imiss = 0, pmiss = 0, smiss = 0;
    uint32_t lateExecutes = 0; //!< executed here, dispatched earlier
    bool triggerIsImiss = false;
    bool imissStop = false;    //!< an instruction miss joined it
    FetchStop fetchStop = FetchStop::None;
    // Configs A and B: the in-order scan of its unexecuted entries at
    // close (Figure 5's "Missing load" and "Dep store").
    bool seenUnexecMem = false;
    bool firstUnexecMemIsStore = false;
    bool seenUnresolvedStore = false;
    Inhibitor policyStop = Inhibitor::Maxwin;
};

/**
 * One program-order pass over the trace (DESIGN.md section 12). The
 * phase loop it replaced ran execute, retire, fetch-unblock, dispatch
 * and fetch, in that order, once per step, and closed the open epoch
 * in the first step in which none of them could act. With F fetch, D
 * dispatch, X execute and R retire times (a term with a negative
 * index drops out; "+1" is one step later):
 *
 *   F(i) = max(F(i-1), D(i-fetchBufferSize), X(i-1) if i-1 is a
 *          mispredicted branch, R(i-1) if i-1 is a blocking
 *          serializer), moved to the next epoch while the epoch's
 *          trigger is epochInstHorizon or more behind i. An
 *          instruction miss joins the open epoch, waits for an older
 *          miss to open one, or opens its own once everything older
 *          is dispatched and executed; i is fetched in the next
 *          epoch.
 *   D(i) = max(F(i)+1, D(i-1), R(i-robSize), the issueWindowSize-th
 *          largest older X); once a data or store miss has executed
 *          in a runahead machine's epoch, i dispatches in it while it
 *          is at most maxRunaheadDistance past the trigger.
 *   X(i) = max(D(i)+1, the value time of each source register's and
 *          the forwarding store's newest writer, and Table 2: config
 *          A memory ops the previous memory op's X; config B loads
 *          every older store's address value times; configs A-C
 *          branches the previous branch's X; blocking serializers
 *          every older X).
 *   R(i) = max(X(i), R(i-1)), where a data or store miss completes,
 *          and a data miss's value arrives (unless correctly value
 *          predicted), at the next epoch's first step.
 *
 * Each epoch's trigger is its lowest-index miss: within an epoch an
 * older instruction never executes after a younger one. The loop's
 * iteration count is the sum over epochs of their last busy step + 2
 * (the steps, plus the one that closed the epoch or ended the run).
 */
class Pass
{
  public:
    Pass(const MlpConfig &config, const WorkloadContext &workload,
         ChunkWindow &window)
        : cfg(config), traceSize(workload.size()), window(window),
          here(window), ahead(window), misses(*workload.misses),
          branches(*workload.branches),
          values(config.valuePrediction ? workload.values : nullptr),
          branchesInOrder(config.issue == IssueConfig::A ||
                          config.issue == IssueConfig::B ||
                          config.issue == IssueConfig::C),
          serializingBlocks(config.issue != IssueConfig::E &&
                            config.mode != CoreMode::Runahead),
          classifies(config.issue == IssueConfig::A ||
                     config.issue == IssueConfig::B),
          windowBinds(config.issueWindowSize < config.robSize),
          stampMask(std::bit_ceil(uint64_t(std::max(
                        config.fetchBufferSize, config.robSize)) + 1) - 1),
          fetchAt(stampMask + 1), dispatchAt(stampMask + 1),
          retireAt(stampMask + 1), stores(stampMask + 1),
          bucketMask(std::bit_ceil(2 * uint64_t(config.robSize)) - 1),
          storeHeads(bucketMask + 1), epochs(64)
    {
    }

    /** Stamp instruction @p idx, and maybe a quiet stretch after it;
     *  returns the first index left unstamped. */
    uint64_t
    advance(uint64_t idx)
    {
        const trace::TraceChunk &ck = here.at(idx);
        const uint32_t ci = uint32_t(idx - ck.base);
        uint64_t next = idx + 1;
        if (offChipAt(idx) || !quietStep(ck, ci, idx))
            step(ck, ci, idx);
        else
            next = conveyor(next);
        // The pass never reads behind next: a streamed window drops
        // the chunks.
        if (next >= ck.base + ck.count)
            window.releaseBefore(next);
        return next;
    }

    /** Fold in every epoch once all @p size instructions are stamped;
     *  @p loop_iterations gets the phase loop's iteration count. */
    MlpResult
    finish(uint64_t size, uint64_t &loop_iterations)
    {
        closeEpochsBefore(kNever, kNever, size);
        loop_iterations = loopIterations;
        result.measuredInsts =
            size > cfg.warmupInsts ? size - cfg.warmupInsts : 0;
        return result;
    }

  private:
    /** Stamp instruction @p idx, row @p ci of chunk @p ck. */
    void
    step(const trace::TraceChunk &ck, uint32_t ci, uint64_t idx)
    {
        const InstClass cls = ck.cls(ci);
        const uint64_t eff = ck.effAddr[ci];
        const bool serializing = cls == InstClass::Serializing;
        const bool atomic = serializing && eff != 0;
        // Prefetches are non-binding hints: no Table 2 memory rule and
        // no forwarding applies to them.
        const bool load = cls == InstClass::Load || atomic;
        const bool store = cls == InstClass::Store;
        const bool branch = cls == InstClass::Branch;
        const bool ordered_mem =
            cfg.issue == IssueConfig::A && (load || store);

        const Time fetch = fetchTime(idx);
        const Time dispatch = dispatchTime(idx, fetch);
        enterWindow(dispatch);
        closeEpochsBefore(fetch, dispatch, idx);
        keepInFlightStamped(idx, dispatch);

        // Operands: each source's newest writer and, for a load, the
        // newest in-flight store to its address. A writer that
        // retired by D(i) has a value time <= D(i), which changes no
        // maximum below.
        const uint8_t src0 = ck.src0[ci];
        const uint8_t src2 = ck.src2[ci];
        const Time addr_ready = std::max(valueAt[src0], valueAt[src2]);
        Time operands = std::max(addr_ready, valueAt[ck.src1[ci]]);
        const uint64_t key = eff >> 3;
        if (load)
            operands = std::max(operands, forwardedValue(key));

        Time execute = std::max(dispatch + 1, operands);
        if (ordered_mem)
            execute = std::max(execute, lastMemExecute);
        if (cfg.issue == IssueConfig::B && load)
            execute = std::max(execute, storeAddrsReady);
        if (branchesInOrder && branch)
            execute = std::max(execute, lastBranchExecute);
        if (serializing && serializingBlocks)
            execute = std::max(execute, maxExecute);

        Time value = execute;
        Time complete = execute;
        const bool dmiss = misses.dataMiss(idx);
        const bool smiss = cfg.finiteStoreBuffer && misses.storeMiss(idx);
        const bool pmiss = misses.usefulPrefetch(idx);
        if (dmiss || smiss || pmiss) {
            EpochRecord &ep = record(epochOf(execute));
            open(ep, idx, execute);
            ep.accesses += unsigned(dmiss) + unsigned(smiss) +
                           unsigned(pmiss);
            ep.dmiss += dmiss;
            ep.smiss += smiss;
            ep.pmiss += pmiss;
            if (dmiss || smiss) {
                ep.loadMissAt = std::min(ep.loadMissAt, execute);
                complete = nextEpoch(execute);
            }
            if (dmiss && !(values && values->isCorrect(idx)))
                value = complete;
        }
        const Time retire = std::max(complete, lastRetire);

        if (classifies) {
            classifyWaiting(dispatch, execute, operands, addr_ready, load,
                            store);
        }

        // What younger instructions read of this one.
        const uint8_t dst = ck.dst[ci];
        if (dst != trace::noReg)
            valueAt[dst] = value;
        if (store || atomic) {
            const uint64_t b = bucketOf(key);
            stores[idx & stampMask] =
                StoreStamp{key + 1, std::exchange(storeHeads[b], idx + 1),
                           value};
        }
        if (store)
            storeAddrsReady = std::max(storeAddrsReady, addr_ready);
        if (ordered_mem)
            lastMemExecute = execute;
        if (branch)
            lastBranchExecute = execute;
        maxExecute = std::max(maxExecute, execute);
        if (epochOf(execute) > windowEpoch) {
            ++record(epochOf(execute)).lateExecutes;
            ++lateExecutes;
        } else {
            ++dispatchedAtLast;
        }
        dispatchAt[idx & stampMask] = dispatch;
        retireAt[idx & stampMask] = retire;
        if (epochOf(fetch) != epochOf(retire)) {
            busy(fetch);
            busy(dispatch);
            busy(execute);
        }
        busy(retire);

        fetchStop = stopKind(cls, idx);
        fetchRelease = fetchStop == FetchStop::Mispred     ? execute
                       : fetchStop == FetchStop::Serialize ? retire
                                                           : 0;
        lastFetch = fetch;
        lastDispatch = dispatch;
        lastRetire = retire;
    }

    /**
     * Stamp an instruction with no off-chip access that enters a
     * machine with nothing outstanding, if it does: no epoch is open
     * and every older instruction retires by the step after this one
     * dispatches. Then it executes and retires in that step, and no
     * younger instruction can be held back by anything else it
     * writes: a register, a store or a Table 2 rule it sets is ready
     * no later than any such younger instruction dispatches. Returns
     * false, changing nothing, if the machine is not that quiet.
     */
    bool
    quietStep(const trace::TraceChunk &ck, uint32_t ci, uint64_t idx)
    {
        // Without an open epoch, neither the horizon nor runahead
        // applies, and no older time lies past this epoch; fetching
        // within it ends no epoch.
        if (epochs[windowEpoch & (epochs.size() - 1)].trigger != kNone)
            return false;
        const Time fetch = std::max(
            {lastFetch,
             dispatchAt[(idx - cfg.fetchBufferSize) & stampMask],
             fetchRelease});
        Time dispatch = std::max({fetch + 1, lastDispatch,
                                  retireAt[(idx - cfg.robSize) & stampMask]});
        if (windowBinds && dispatch == lastDispatch &&
            dispatchedAtLast >= cfg.issueWindowSize)
            ++dispatch;
        const Time done = dispatch + 1;
        if (lastRetire > done || epochOf(lastFetch) != windowEpoch ||
            epochOf(fetch) != windowEpoch)
            return false;

        keepInFlightStamped(idx, dispatch);
        enterWindow(dispatch);
        ++dispatchedAtLast;
        dispatchAt[idx & stampMask] = dispatch;
        retireAt[idx & stampMask] = done;
        EpochRecord &ep = epochs[windowEpoch & (epochs.size() - 1)];
        ep.busyEnd = std::max(ep.busyEnd, stepOf(done) + 1);

        fetchStop = stopKind(ck.cls(ci), idx);
        fetchRelease = fetchStop == FetchStop::None ? 0 : done;
        lastFetch = fetch;
        lastDispatch = dispatch;
        lastRetire = maxExecute = done;
        return true;
    }

    /** What instruction @p idx, of class @p cls, stops fetch on
     *  until it executes (a mispredicted branch) or retires (a blocking
     *  serializer). */
    FetchStop
    stopKind(InstClass cls, uint64_t idx) const
    {
        if (cls == InstClass::Branch && branches.isMispredict(idx))
            return FetchStop::Mispred;
        if (cls == InstClass::Serializing && serializingBlocks)
            return FetchStop::Serialize;
        return FetchStop::None;
    }

    /** stopKind() for an instruction ahead of the one being stamped. */
    FetchStop
    stopAfter(uint64_t idx)
    {
        const trace::TraceChunk &ck = ahead.at(idx);
        return stopKind(ck.cls(uint32_t(idx - ck.base)), idx);
    }

    /** The first instruction in [@p from, @p limit) that stopAfter()
     *  would stop fetch on, or @p limit. Queries only move forward. */
    uint64_t
    nextBlocker(uint64_t from, uint64_t limit)
    {
        // A mispredict bit stops fetch only on a branch, which is
        // checked only within reach (a streamed window holds no more).
        const util::BitVector &plane = branches.mispredicted;
        const auto word = [&](uint64_t w) { return plane.word(w); };
        if (mispredNext < from)
            mispredNext = firstSetBit(from, traceSize, word);
        while (mispredNext < limit &&
               !ahead.at(mispredNext).isBranch(
                   uint32_t(mispredNext - ahead.at(mispredNext).base)))
            mispredNext = firstSetBit(mispredNext + 1, traceSize, word);
        uint64_t stop = std::min(mispredNext, limit);
        if (!serializingBlocks)
            return stop;
        // Serializers come from the meta column, scanned only as far
        // as a fetch reaches (a streamed window holds no more).
        if (serialScan < from) {
            serialScan = from;
            serialFound = false;
        }
        while (!serialFound && serialScan < stop) {
            const trace::TraceChunk &ck = ahead.at(serialScan);
            const uint8_t *meta = ck.meta.data();
            const uint32_t end =
                uint32_t(std::min<uint64_t>(ck.count, stop - ck.base));
            uint32_t ci = uint32_t(serialScan - ck.base);
            while (ci < end && (meta[ci] & trace::Instruction::clsMask) !=
                                   uint8_t(InstClass::Serializing))
                ++ci;
            serialScan = ck.base + ci;
            serialFound = ci < end;
        }
        return serialFound ? std::min(stop, serialScan) : stop;
    }

    /** The first index at or after @p from with an off-chip access or
     *  fetch miss, or the trace size. */
    uint64_t
    nextOffChip(uint64_t from)
    {
        if (offChipNext < from) {
            offChipNext = firstSetBit(from, traceSize, [&](uint64_t w) {
                uint64_t bits = misses.dataMissBits().word(w) |
                                misses.usefulPrefetchBits().word(w) |
                                misses.fetchMissBits().word(w);
                if (cfg.finiteStoreBuffer)
                    bits |= misses.storeMissBits().word(w);
                return bits;
            });
        }
        return offChipNext;
    }

    /**
     * Carry on from a quiet instruction @p next - 1, dispatched at
     * lastDispatch, a machine step at a time. In a quiet stretch every
     * instruction executes and retires in the step after its dispatch,
     * so each step starts with an empty ROB and issue window: it
     * dispatches min(fetched, ROB, issue window) instructions, then
     * fetches up to the fetch buffer, stopping after a mispredicted
     * branch or blocking serializer until the step after its
     * dispatch. Only the D and R stamps a later instruction can still
     * read are kept. The conveyor stops before it would fetch an
     * instruction with an off-chip access or fetch miss, and every
     * 64K instructions so cancellation is polled. Returns the first
     * index left unstamped.
     */
    uint64_t
    conveyor(uint64_t next)
    {
        const uint64_t buffer = cfg.fetchBufferSize;
        const uint64_t stop = nextOffChip(next);
        // A short stretch is cheaper one instruction at a time.
        if (stop - next < 2 * buffer + 64)
            return next;
        const uint64_t width = std::min(cfg.robSize, cfg.issueWindowSize);
        const uint64_t budget = next + 0x10000;

        // Step lastDispatch is part done: instructions from next
        // fetched before it can still join its dispatch batch.
        Time t = lastDispatch;
        uint64_t f = next;
        bool blocked = fetchStop != FetchStop::None;
        for (Time fetched = lastFetch; !blocked && f < next + buffer; ++f) {
            const Time slot = dispatchAt[(f - buffer) & stampMask];
            if (slot >= t)
                break;
            fetched = std::max(fetched, slot);
            fetchAt[f & stampMask] = fetched;
            blocked = stopAfter(f) != FetchStop::None;
        }

        // The conveyor stops at some d >= bound - buffer. Later steps
        // read D up to a fetch buffer back from there and R up to a
        // ROB back, but an R older than the last batch is already
        // below every later D. Older stamps are left unwritten.
        const uint64_t bound = std::min({stop, budget, traceSize});
        const uint64_t keep = 2 * buffer + width + 1;
        const uint64_t keep_from = bound > keep ? bound - keep : 0;
        uint64_t d = next;
        uint64_t room = width - std::min<uint64_t>(width, dispatchedAtLast);
        Time batch_time = t;
        uint64_t batch_count = dispatchedAtLast;
        uint64_t batch_first = next - dispatchedAtLast;
        Time busy_to = t + 1;
        while (true) {
            const uint64_t batch = std::min(f - d, room);
            if (batch != 0) {
                if (t != batch_time) {
                    batch_time = t;
                    batch_count = 0;
                    batch_first = d;
                }
                for (uint64_t k = std::max(d, keep_from); k < d + batch; ++k) {
                    dispatchAt[k & stampMask] = t;
                    retireAt[k & stampMask] = t + 1;
                }
                batch_count += batch;
                d += batch;
                busy_to = t + 1;
                // Nothing below d - 1 is read again.
                window.releaseBefore(d - 1);
            }
            if (d >= budget || d == traceSize)
                break;
            if (!blocked) {
                const uint64_t limit = std::min(traceSize, d + buffer);
                const uint64_t reach = std::min(limit, stop);
                const uint64_t blocker = nextBlocker(f, reach);
                blocked = blocker < reach;
                const uint64_t end = blocked ? blocker + 1 : reach;
                if (end == stop && limit > stop)
                    break; // it would fetch the off-chip instruction
                for (uint64_t k = std::max(f, keep_from); k < end; ++k)
                    fetchAt[k & stampMask] = t;
                if (end != f)
                    busy_to = std::max(busy_to, t);
                f = end;
            }
            ++t;
            room = width;
            // The blocking instruction executed and retired in the
            // step after its dispatch.
            blocked = blocked && f - 1 >= d;
        }
        if (d == next)
            return next;

        lastFetch = fetchAt[(d - 1) & stampMask];
        lastDispatch = batch_time;
        dispatchedAtLast = batch_count;
        lastRetire = maxExecute = batch_time + 1;
        fetchStop = stopAfter(d - 1);
        fetchRelease = fetchStop == FetchStop::None ? 0 : batch_time + 1;
        retireFrontier = std::max(retireFrontier, batch_first);
        EpochRecord &ep = epochs[windowEpoch & (epochs.size() - 1)];
        ep.busyEnd = std::max(ep.busyEnd, stepOf(busy_to) + 1);
        return d;
    }

    EpochRecord &
    record(uint64_t epoch)
    {
        if (epoch - baseEpoch >= epochs.size())
            growEpochs(epoch);
        lastEpoch = std::max(lastEpoch, epoch);
        return epochs[epoch & (epochs.size() - 1)];
    }

    void
    growEpochs(uint64_t epoch)
    {
        std::vector<EpochRecord> next(
            std::bit_ceil(2 * (epoch - baseEpoch + 1)));
        for (uint64_t e = baseEpoch; e <= lastEpoch; ++e)
            next[e & (next.size() - 1)] =
                epochs[e & (epochs.size() - 1)];
        epochs.swap(next);
    }

    /** Whether instruction @p idx has an off-chip access or fetch
     *  miss. */
    bool
    offChipAt(uint64_t idx)
    {
        if (idx >> 6 != offChipWordAt) {
            offChipWordAt = idx >> 6;
            offChipWord = misses.dataMissBits().word(offChipWordAt) |
                          misses.usefulPrefetchBits().word(offChipWordAt) |
                          misses.fetchMissBits().word(offChipWordAt);
            if (cfg.finiteStoreBuffer)
                offChipWord |= misses.storeMissBits().word(offChipWordAt);
        }
        return (offChipWord >> (idx & 63)) & 1;
    }

    /** Time @p t's step made progress. */
    void
    busy(Time t)
    {
        EpochRecord &ep = record(epochOf(t));
        ep.busyEnd = std::max(ep.busyEnd, stepOf(t) + 1);
    }

    /** Instruction @p idx's miss executes at @p at in @p ep. */
    static void
    open(EpochRecord &ep, uint64_t idx, Time at)
    {
        if (ep.trigger == kNone) {
            ep.trigger = idx;
            ep.openAt = at;
        }
    }

    /** Whether the fetch horizon has closed @p ep to @p idx by @p t. */
    bool
    pastHorizon(const EpochRecord &ep, uint64_t idx, Time t) const
    {
        return ep.openAt <= t && idx - ep.trigger >= cfg.epochInstHorizon;
    }

    Time
    fetchTime(uint64_t idx)
    {
        Time fetch = std::max(
            {lastFetch,
             dispatchAt[(idx - cfg.fetchBufferSize) & stampMask],
             fetchRelease});
        bool imiss = misses.fetchMiss(idx);
        while (true) {
            EpochRecord &ep = record(epochOf(fetch));
            if (pastHorizon(ep, idx, fetch)) {
                fetch = nextEpoch(fetch);
                continue;
            }
            if (!imiss)
                return fetch;
            // The instruction miss joins the open epoch. With none
            // open, it waits: an older miss may open one first, and
            // otherwise it opens its own once everything older has
            // been dispatched and executed.
            Time at = fetch;
            if (ep.openAt > fetch) {
                const Time settled =
                    std::max({fetch, lastDispatch, maxExecute});
                if (ep.openAt <= settled) {
                    at = ep.openAt;
                    if (pastHorizon(ep, idx, at)) {
                        fetch = nextEpoch(fetch);
                        continue;
                    }
                } else {
                    MLPSIM_ASSERT(epochOf(settled) == epochOf(fetch),
                                  "instruction miss at ", idx,
                                  " waits past a closed epoch");
                    at = settled;
                    ep.trigger = idx;
                    ep.openAt = at;
                    ep.triggerIsImiss = true;
                }
            }
            ++ep.accesses;
            ++ep.imiss;
            ep.imissStop = true;
            busy(at);
            imiss = false;
            fetch = nextEpoch(at);
        }
    }

    /** Executes counted in lateExecutes, in epoch @p e. */
    uint64_t
    lateExecutesIn(uint64_t e) const
    {
        return e <= lastEpoch ? epochs[e & (epochs.size() - 1)].lateExecutes
                              : 0;
    }

    /**
     * The first time at or after @p t at which instruction @p idx has
     * a ROB entry and an issue-window slot. An older instruction is
     * still unexecuted at t if it was dispatched at t, or executes in
     * a later epoch (at its start): one executing later in t's epoch
     * would have to wait on something dispatched after it.
     */
    Time
    roomAt(uint64_t idx, Time t) const
    {
        t = std::max(t, retireAt[(idx - cfg.robSize) & stampMask]);
        if (!windowBinds)
            return t;
        uint64_t later = lateExecutes;
        for (uint64_t e = windowEpoch; e < epochOf(t);)
            later -= lateExecutesIn(++e);
        while (true) {
            const uint64_t batch = t == lastDispatch ? dispatchedAtLast : 0;
            if (later + batch < cfg.issueWindowSize)
                return t;
            if (later < cfg.issueWindowSize)
                return t + 1;
            t = nextEpoch(t);
            later -= lateExecutesIn(epochOf(t));
        }
    }

    /** An instruction dispatches at @p dispatch. */
    void
    enterWindow(Time dispatch)
    {
        if (dispatch != lastDispatch)
            dispatchedAtLast = 0;
        while (windowEpoch < epochOf(dispatch))
            lateExecutes -= lateExecutesIn(++windowEpoch);
    }

    Time
    dispatchTime(uint64_t idx, Time fetch)
    {
        const Time earliest = std::max(fetch + 1, lastDispatch);
        if (cfg.mode != CoreMode::Runahead)
            return roomAt(idx, earliest);
        // Runahead: once a data or store miss has executed in an
        // epoch, dispatch ignores the ROB and issue window and stops
        // maxRunaheadDistance past the trigger until the epoch ends.
        for (Time t = earliest;;) {
            const EpochRecord &ep = record(epochOf(t));
            const Time normal = roomAt(idx, t);
            if (normal < ep.loadMissAt) {
                if (epochOf(normal) == epochOf(t))
                    return normal;
                t = nextEpoch(t);
                continue;
            }
            if (idx - ep.trigger <= cfg.maxRunaheadDistance)
                return std::max(t, ep.loadMissAt);
            t = nextEpoch(t);
        }
    }

    /**
     * Instruction @p idx is fetched at @p fetch and dispatched at
     * @p dispatch: every epoch before those ends with @p idx not yet
     * fetched, or not yet dispatched. Epochs fetched past are final.
     */
    void
    closeEpochsBefore(Time fetch, Time dispatch, uint64_t idx)
    {
        const uint64_t fetch_epoch =
            fetch == kNever ? lastEpoch + 1 : epochOf(fetch);
        const uint64_t dispatch_epoch =
            dispatch == kNever ? lastEpoch + 1 : epochOf(dispatch);
        for (uint64_t e = epochOf(lastFetch); e < fetch_epoch; ++e) {
            EpochRecord &ep = record(e);
            ep.fetchEnd = idx;
            // Fetch still waits on the instruction before idx.
            if (epochOf(fetchRelease) > e)
                ep.fetchStop = fetchStop;
        }
        for (uint64_t e = epochOf(lastDispatch); e < dispatch_epoch; ++e)
            record(e).dispatchEnd = idx;
        while (baseEpoch < fetch_epoch && baseEpoch <= lastEpoch)
            finalize();
    }

    /** Fold the oldest open epoch into the result. */
    void
    finalize()
    {
        EpochRecord &ep = epochs[baseEpoch & (epochs.size() - 1)];
        loopIterations += ep.busyEnd + 1;
        if (ep.trigger == kNone) {
            // Only the last epoch never opens: the run ends in it.
            MLPSIM_ASSERT(baseEpoch == lastEpoch,
                          "epoch ", baseEpoch, " never opened");
        } else {
            if (baseEpoch == lastEpoch)
                loopIterations += 1; // the run ends in an idle epoch
            recordEpoch(ep);
        }
        ep = EpochRecord{};
        ++baseEpoch;
    }

    void
    recordEpoch(const EpochRecord &ep)
    {
        Inhibitor cause = ep.policyStop;
        if (ep.triggerIsImiss) {
            cause = Inhibitor::ImissStart;
        } else if (ep.imissStop) {
            cause = Inhibitor::ImissEnd;
        } else if (ep.fetchStop == FetchStop::Serialize) {
            cause = Inhibitor::Serialize;
        } else if (ep.fetchStop == FetchStop::Mispred) {
            cause = Inhibitor::MispredBr;
        } else if (cause == Inhibitor::Maxwin &&
                   ep.dispatchEnd == ep.fetchEnd) {
            if (ep.fetchEnd >= traceSize)
                cause = Inhibitor::EndOfTrace;
            else if (ep.fetchEnd - ep.trigger >= cfg.epochInstHorizon)
                cause = Inhibitor::TriggerDone;
        }
        if (ep.trigger < cfg.warmupInsts)
            return;
        ++result.epochs;
        result.usefulAccesses += ep.accesses;
        result.dmissAccesses += ep.dmiss;
        result.imissAccesses += ep.imiss;
        result.pmissAccesses += ep.pmiss;
        result.smissAccesses += ep.smiss;
        result.inhibitors.record(cause);
        result.accessesPerEpoch.add(ep.accesses);
        // The inlined enabled() check keeps this per-epoch histogram
        // update out of the hot path unless --metrics-out asked for it.
        if (metrics::enabled()) {
            metrics::cur().observeKey(
                metrics::scopedPath("core/epoch_engine/epoch_insts"),
                ep.dispatchEnd - ep.trigger);
        }
    }

    /**
     * Configs A and B: an instruction dispatched in epoch
     * epochOf(dispatch) and executed later is still waiting when each
     * epoch in between closes. Fold it into those epochs' in-order
     * scans for a ready load that an issue policy holds back.
     */
    void
    classifyWaiting(Time dispatch, Time execute, Time operands,
                    Time addr_ready, bool load, bool store)
    {
        for (uint64_t e = epochOf(dispatch); e < epochOf(execute); ++e) {
            EpochRecord &ep = record(e);
            if (ep.policyStop != Inhibitor::Maxwin)
                continue;
            if (load && epochOf(operands) <= e) {
                if (cfg.issue == IssueConfig::A && ep.seenUnexecMem) {
                    ep.policyStop = ep.firstUnexecMemIsStore
                                        ? Inhibitor::DepStore
                                        : Inhibitor::MissingLoad;
                } else if (cfg.issue == IssueConfig::B &&
                           ep.seenUnresolvedStore) {
                    ep.policyStop = Inhibitor::DepStore;
                }
            }
            if ((load || store) && !ep.seenUnexecMem) {
                ep.seenUnexecMem = true;
                ep.firstUnexecMemIsStore = store;
            }
            if (store && epochOf(addr_ready) > e)
                ep.seenUnresolvedStore = true;
        }
    }

    uint64_t
    bucketOf(uint64_t key) const
    {
        // Multiply-shift (Fibonacci) hash.
        return (key * 0x9E3779B97F4A7C15ull >> 32) & bucketMask;
    }

    /** The value time of the newest in-flight store to @p key. */
    Time
    forwardedValue(uint64_t key) const
    {
        for (uint64_t s = storeHeads[bucketOf(key)]; s > retireFrontier;
             s = stores[(s - 1) & stampMask].prev) {
            const StoreStamp &older = stores[(s - 1) & stampMask];
            if (older.key == key + 1)
                return older.value;
        }
        return 0;
    }

    /**
     * The stamp rings must hold every instruction still in flight at
     * D(@p idx), whose stores a load may forward from: under runahead
     * that can be more than a ROB. Advance the retire frontier, and
     * double the rings if it is still a ring behind.
     */
    void
    keepInFlightStamped(uint64_t idx, Time dispatch)
    {
        if (idx - retireFrontier <= stampMask)
            return;
        while (retireFrontier < idx &&
               retireAt[retireFrontier & stampMask] <= dispatch)
            ++retireFrontier;
        if (idx - retireFrontier <= stampMask)
            return;
        const uint64_t mask = 2 * stampMask + 1;
        std::vector<Time> f(mask + 1), d(mask + 1), r(mask + 1);
        std::vector<StoreStamp> s(mask + 1);
        for (uint64_t k = idx - (stampMask + 1); k < idx; ++k) {
            f[k & mask] = fetchAt[k & stampMask];
            d[k & mask] = dispatchAt[k & stampMask];
            r[k & mask] = retireAt[k & stampMask];
            s[k & mask] = stores[k & stampMask];
        }
        fetchAt.swap(f);
        dispatchAt.swap(d);
        retireAt.swap(r);
        stores.swap(s);
        stampMask = mask;
    }

    const MlpConfig &cfg;
    const uint64_t traceSize;
    ChunkWindow &window;
    InstCursor here;  //!< the instruction being stamped
    InstCursor ahead; //!< the conveyor's fetch
    const memory::MissAnnotations &misses;
    const branch::BranchAnnotations &branches;
    const predictor::ValueAnnotations *values; //!< null without VP
    const bool branchesInOrder;
    const bool serializingBlocks;
    const bool classifies;  //!< configs A and B
    const bool windowBinds; //!< issue window smaller than the ROB

    // D and R up to a ROB or fetch buffer back (more under runahead),
    // and stores' forwarding stamps, at idx & stampMask.
    uint64_t stampMask;
    std::vector<Time> fetchAt; //!< written by the conveyor only
    std::vector<Time> dispatchAt;
    std::vector<Time> retireAt;
    std::vector<StoreStamp> stores;
    uint64_t retireFrontier = 0; //!< every older index has retired

    // Index + 1 of the newest store or atomic per address-key bucket,
    // chained through the stamps to the previous one in its bucket.
    const uint64_t bucketMask;
    std::vector<uint64_t> storeHeads;

    // Value time of each register's newest writer (noReg stays 0).
    std::array<Time, 256> valueAt{};

    // The issue window, when it is smaller than the ROB, holds the
    // instructions dispatched at lastDispatch that execute in the next
    // step, and those that execute at the start of an epoch after
    // windowEpoch = epochOf(lastDispatch).
    uint64_t dispatchedAtLast = 0;
    uint64_t windowEpoch = 1;
    uint64_t lateExecutes = 0;

    // Off-chip and instruction-miss bits of the 64 instructions from
    // 64 * offChipWordAt.
    uint64_t offChipWordAt = kNone;
    uint64_t offChipWord = 0;
    uint64_t offChipNext = 0; //!< nextOffChip's last answer
    // nextBlocker's lookahead: the first mispredicted branch at or
    // after an earlier query, and no blocking serializer in
    // [that query, serialScan) (serialScan is one if serialFound).
    uint64_t mispredNext = 0;
    uint64_t serialScan = 0;
    bool serialFound = false;

    Time lastFetch = epochStart(1);
    Time lastDispatch = epochStart(1);
    Time lastRetire = 0;
    Time maxExecute = 0;
    Time lastMemExecute = 0;    //!< config A
    Time lastBranchExecute = 0; //!< configs A-C
    Time storeAddrsReady = 0;   //!< config B
    FetchStop fetchStop = FetchStop::None; //!< what i-1 stops fetch on
    Time fetchRelease = 0;                 //!< ... until then

    // Epochs baseEpoch..lastEpoch, at epoch & (size - 1).
    std::vector<EpochRecord> epochs;
    uint64_t baseEpoch = 1;
    uint64_t lastEpoch = 1;
    uint64_t loopIterations = 0;
    MlpResult result;
};

} // namespace

EpochEngine::EpochEngine(const MlpConfig &config,
                         const WorkloadContext &workload)
    : cfg(config), wl(workload)
{
    MLPSIM_ASSERT(wl.hasTrace() && wl.misses && wl.branches,
                  "workload context incomplete");
    MLPSIM_ASSERT(cfg.mode == CoreMode::OutOfOrder ||
                      cfg.mode == CoreMode::Runahead,
                  "EpochEngine only models OoO/runahead machines");
    MLPSIM_ASSERT(!cfg.valuePrediction || wl.values,
                  "value prediction requested without value annotations");
    MLPSIM_ASSERT(cfg.robSize >= 1 && cfg.issueWindowSize >= 1 &&
                      cfg.fetchBufferSize >= 1,
                  "window structures must be non-empty");
    // A step fits 32 bits: the machine needs at most a few steps per
    // instruction.
    MLPSIM_ASSERT(wl.size() < (uint64_t(1) << 30),
                  "trace too large for 32-bit epoch steps");
}

MlpResult
EpochEngine::run()
{
    const uint64_t size = wl.size();
    ChunkWindow window(wl);
    Pass pass(cfg, wl, window);
    for (uint64_t idx = 0, poll = 0; idx < size;) {
        if (idx >= poll) {
            pollCancellation();
            poll = idx + 0x10000;
        }
        idx = pass.advance(idx);
    }
    uint64_t loop_iterations = 0;
    const MlpResult result = pass.finish(size, loop_iterations);

    if (metrics::enabled()) {
        auto &m = metrics::cur();
        m.add(metrics::scopedPath("core/epoch_engine/runs"));
        m.add(metrics::scopedPath("core/epoch_engine/epochs"),
              result.epochs);
        m.add(metrics::scopedPath("core/epoch_engine/useful_accesses"),
              result.usefulAccesses);
        m.add(metrics::scopedPath("core/epoch_engine/measured_insts"),
              result.measuredInsts);
        m.add(metrics::scopedPath("core/epoch_engine/loop_iterations"),
              loop_iterations);
        m.set(metrics::scopedPath("core/epoch_engine/mlp"),
              result.mlp());
    }
    return result;
}

} // namespace mlpsim::core
