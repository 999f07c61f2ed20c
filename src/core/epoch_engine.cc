#include "epoch_engine.hh"

#include <algorithm>
#include <bit>

#include "metrics/registry.hh"
#include "util/cancellation.hh"
#include "util/logging.hh"

namespace mlpsim::core {

using trace::InstClass;

namespace {

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

} // namespace

EpochEngine::EpochEngine(const MlpConfig &config,
                         const WorkloadContext &workload)
    : cfg(config), wl(workload),
      branchesInOrder(config.issue == IssueConfig::A ||
                      config.issue == IssueConfig::B ||
                      config.issue == IssueConfig::C),
      serializingBlocks(config.issue != IssueConfig::E &&
                        config.mode != CoreMode::Runahead),
      window(workload), dispatchCur(window), fetchCur(window),
      df(workload.size(), config.robSize, config.issue == IssueConfig::B)
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

    memFifo.reset(256);
    branchFifo.reset(256);

    nextEvent = scanEvents(0);
    nextImiss = scanPlane(wl.misses->fetchMissBits(), 0);
    nextMispred = scanPlane(wl.branches->mispredicted, 0);
}

bool
EpochEngine::runaheadActive() const
{
    // Runahead is entered when a missing-load epoch trigger blocks the
    // head of the ROB; from then until the data returns (= epoch
    // close) the machine fetches and executes without capacity or
    // serialization constraints.
    return cfg.mode == CoreMode::Runahead && epochOpen && epochHasLoadMiss;
}

bool
EpochEngine::canDispatchMore() const
{
    if (runaheadActive()) {
        const uint64_t next_seq = nextDispatchIdx + 1;
        return next_seq - triggerSeq <= cfg.maxRunaheadDistance;
    }
    return df.occupancy() < cfg.robSize &&
           iwOccupancy < cfg.issueWindowSize;
}

void
EpochEngine::linkWaitingTail(RobEntry &entry)
{
    const Seq seq = entry.seq;
    entry.waitPrev = waitingTail;
    entry.waitNext = 0;
    if (waitingTail != 0)
        df.entryRef(waitingTail).waitNext = seq;
    else
        waitingHead = seq;
    waitingTail = seq;
    ++waitingCount;
}

void
EpochEngine::unlinkWaiting(RobEntry &entry)
{
    if (entry.waitPrev != 0)
        df.entryRef(entry.waitPrev).waitNext = entry.waitNext;
    else
        waitingHead = entry.waitNext;
    if (entry.waitNext != 0)
        df.entryRef(entry.waitNext).waitPrev = entry.waitPrev;
    else
        waitingTail = entry.waitPrev;
    entry.waitPrev = entry.waitNext = 0;
    MLPSIM_ASSERT(waitingCount > 0, "waiting list underflow");
    --waitingCount;
}

void
EpochEngine::makeEntry(uint64_t idx)
{
    // The window renames and links the entry; the engine adds its
    // annotation bits and its Table 2 queues.
    const trace::TraceChunk &ck = dispatchCur.at(idx);
    RobEntry &entry = df.dispatch(
        ck, uint32_t(idx - ck.base), [this](const RobEntry &producer) {
            return producer.is(kDone) &&
                   producer.valueReadyEpoch <= currentEpoch;
        });
    if (wl.misses->dataMiss(idx))
        entry.flags |= kDMiss;
    if (cfg.finiteStoreBuffer && wl.misses->storeMiss(idx))
        entry.flags |= kSMiss;
    if (wl.misses->usefulPrefetch(idx))
        entry.flags |= kUsefulPmiss;
    if (cfg.valuePrediction && wl.values && wl.values->isCorrect(idx))
        entry.flags |= kVpCorrect;

    linkWaitingTail(entry);
    if (cfg.issue == IssueConfig::A && entry.is(kMemOp) &&
        !entry.is(kPrefetch))
        memFifo.push(entry.seq);
    if (branchesInOrder && entry.is(kBranch))
        branchFifo.push(entry.seq);
}

void
EpochEngine::openEpochIfNeeded(uint64_t idx, bool imiss_trigger,
                               bool load_trigger)
{
    if (epochOpen) {
        if (load_trigger)
            epochHasLoadMiss = true;
        return;
    }
    epochOpen = true;
    triggerIdx = idx;
    triggerSeq = idx + 1;
    triggerIsImiss = imiss_trigger;
    epochHasLoadMiss = load_trigger;
}

void
EpochEngine::executeEntry(RobEntry &entry)
{
    entry.flags |= kDone;
    MLPSIM_ASSERT(iwOccupancy > 0, "issue window underflow");
    --iwOccupancy;
    entry.valueReadyEpoch = currentEpoch;
    entry.completeEpoch = currentEpoch;

    const uint64_t idx = uint64_t(entry.seq) - 1;
    if (entry.is(kDMiss)) {
        openEpochIfNeeded(idx, false, true);
        ++epochAccesses;
        ++epochDmiss;
        // The data returns when the epoch's accesses complete, i.e. at
        // the end of this epoch; retirement waits for the data even
        // when the value was predicted (the prediction must validate).
        entry.completeEpoch = currentEpoch + 1;
        entry.valueReadyEpoch =
            entry.is(kVpCorrect) ? currentEpoch : currentEpoch + 1;
    }
    if (entry.is(kUsefulPmiss)) {
        openEpochIfNeeded(idx, false, false);
        ++epochAccesses;
        ++epochPmiss;
        // Prefetches are non-binding: they never block retirement.
    }
    if (entry.is(kSMiss)) {
        // Store-MLP extension: the write-allocate fill is an off-chip
        // access, and with a full store buffer the store cannot leave
        // the ROB until the line arrives.
        openEpochIfNeeded(idx, false, true);
        ++epochAccesses;
        ++epochSmiss;
        entry.completeEpoch = currentEpoch + 1;
    }
}

void
EpochEngine::executeAt(RobEntry &entry)
{
    const Seq seq = entry.seq;
    const bool was_waiting_head = (waitingHead == seq);
    unlinkWaiting(entry);

    // Advancing an in-order queue is itself a wake event: the next
    // queue head may have been dropped from the heap waiting for it.
    if (cfg.issue == IssueConfig::A && entry.is(kMemOp) &&
        !entry.is(kPrefetch)) {
        memFifo.pop();
        if (!memFifo.empty())
            df.pushCandidate(df.entryRef(memFifo.front()));
    }
    if (branchesInOrder && entry.is(kBranch)) {
        branchFifo.pop();
        if (!branchFifo.empty())
            df.pushCandidate(df.entryRef(branchFifo.front()));
    }
    if (was_waiting_head && serializingBlocks && waitingHead != 0) {
        RobEntry &head = df.entryRef(waitingHead);
        if (head.is(kSerializing))
            df.pushCandidate(head);
    }

    executeEntry(entry);

    if (entry.valueReadyEpoch <= currentEpoch)
        df.notifyConsumers(entry);
    else
        pendingValueWake.push_back(seq);
}

bool
EpochEngine::executePasses()
{
    // Drain ready candidates oldest-first. Every eligibility predicate
    // below depends only on strictly older instructions, and every
    // wake-up pushed while draining targets a strictly younger seq than
    // the instruction that caused it, so this min-heap order replays
    // the old scan-to-closure loop's execution order exactly.
    bool any = false;
    while (df.hasCandidates()) {
        RobEntry &entry = df.popCandidate();
        if (entry.is(kDone))
            continue;
        // Prefetches are non-binding hints: they neither wait for the
        // memory-ordering constraints of configs A/B nor block other
        // memory operations.
        if (cfg.issue == IssueConfig::A && entry.is(kMemOp) &&
            !entry.is(kPrefetch) && memFifo.front() != entry.seq) {
            continue; // re-woken when the memory queue advances
        }
        if (entry.is(kLoadLike) && !entry.is(kPrefetch) &&
            df.parkBehindUnresolvedStore(entry)) {
            continue; // re-woken when the oldest store address resolves
        }
        if (branchesInOrder && entry.is(kBranch) &&
            branchFifo.front() != entry.seq) {
            continue; // re-woken when the branch queue advances
        }
        if (entry.is(kSerializing) && serializingBlocks &&
            waitingHead != entry.seq) {
            // A serializing instruction issues only once everything
            // older has executed (they then drain/commit with it at the
            // end of the epoch, cf. Example 2 of the paper).
            continue; // re-woken when it becomes the oldest unexecuted
        }
        if (entry.pendingProds != 0)
            continue; // re-woken by its last producer
        executeAt(entry);
        any = true;
    }
    return any;
}

bool
EpochEngine::retire()
{
    bool any = false;
    while (!df.empty()) {
        const RobEntry &head = df.oldest();
        if (!head.is(kDone) || head.completeEpoch > currentEpoch)
            break;
        df.retireOldest();
        any = true;
    }
    return any;
}

bool
EpochEngine::dispatch()
{
    bool any = false;
    while (nextDispatchIdx < nextFetchIdx && canDispatchMore()) {
        makeEntry(nextDispatchIdx);
        ++iwOccupancy;
        ++nextDispatchIdx;
        any = true;
    }
    // Everything below the dispatch point is dead to this engine: the
    // stream-backed window may drop those chunks.
    if (any)
        window.releaseBefore(nextDispatchIdx);
    return any;
}

bool
EpochEngine::fetch()
{
    bool any = false;
    const uint64_t trace_size = wl.size();
    while (fetchBlock == FetchBlock::None &&
           nextFetchIdx < trace_size &&
           nextFetchIdx - nextDispatchIdx < cfg.fetchBufferSize) {
        if (epochOpen &&
            nextFetchIdx - triggerIdx >= cfg.epochInstHorizon) {
            // The trigger's data has returned by now (the epoch-model
            // proxy for elapsed time); the epoch ends without any
            // structural stall.
            break;
        }
        const uint64_t idx = nextFetchIdx;
        const trace::TraceChunk &ck = fetchCur.at(idx);
        if (wl.misses->fetchMiss(idx) && !imissHandled) {
            if (!epochOpen &&
                (nextDispatchIdx < nextFetchIdx || waitingCount != 0)) {
                // Let the back end catch up before deciding whether
                // this instruction miss starts an epoch or overlaps an
                // existing one; a pending data miss in the window must
                // get to open the epoch first (it is older in program
                // order).
                break;
            }
            openEpochIfNeeded(idx, true, false);
            ++epochAccesses;
            ++epochImiss;
            imissHandled = true;
            fetchBlock = FetchBlock::Imiss;
            any = true;
            break;
        }
        imissHandled = false;
        ++nextFetchIdx;
        any = true;

        const uint32_t ci = uint32_t(idx - ck.base);
        if (ck.isBranch(ci) && wl.branches->isMispredict(idx)) {
            // Tentatively pause fetch at a mispredicted branch; if it
            // executes (resolves) within this epoch, fetch resumes at
            // no modelled cost. If it cannot, it is unresolvable and
            // terminates the window (Section 3.2.4).
            fetchBlock = FetchBlock::Mispred;
            fetchBlockSeq = idx + 1;
            break;
        }
        if (ck.isSerializing(ci) && serializingBlocks) {
            fetchBlock = FetchBlock::Serialize;
            fetchBlockSeq = idx + 1;
            break;
        }
    }
    return any;
}

bool
EpochEngine::checkUnblocks()
{
    switch (fetchBlock) {
      case FetchBlock::Serialize:
        // The drain completes when the serializing instruction has
        // retired (everything older committed).
        if (fetchBlockSeq < df.oldestSeq()) {
            fetchBlock = FetchBlock::None;
            return true;
        }
        return false;
      case FetchBlock::Mispred:
      {
        if (fetchBlockSeq < df.oldestSeq()) {
            fetchBlock = FetchBlock::None;
            return true;
        }
        const RobEntry *branch = df.find(fetchBlockSeq);
        if (branch && branch->is(kDone)) {
            fetchBlock = FetchBlock::None;
            return true;
        }
        return false;
      }
      case FetchBlock::Imiss:
      case FetchBlock::None:
        return false;
    }
    return false;
}

Inhibitor
EpochEngine::classifyMaxwinFamily() const
{
    // Configs A and B can have loads/prefetches in the window whose
    // operands are ready but whose issue is blocked by policy; the
    // paper attributes such epochs to the blocking condition rather
    // than to window capacity (Figure 5's "Missing load"/"Dep store").
    if (cfg.issue == IssueConfig::A || cfg.issue == IssueConfig::B) {
        bool seen_unexec_mem = false;
        bool first_unexec_mem_is_store = false;
        bool seen_unresolved_store = false;
        for (Seq seq = waitingHead; seq != 0;
             seq = df.entryRef(seq).waitNext) {
            const RobEntry &entry = df.entryRef(seq);
            const bool ready = entry.pendingProds == 0;
            if (entry.is(kLoadLike) && !entry.is(kPrefetch) && ready) {
                if (cfg.issue == IssueConfig::A && seen_unexec_mem) {
                    return first_unexec_mem_is_store
                               ? Inhibitor::DepStore
                               : Inhibitor::MissingLoad;
                }
                if (cfg.issue == IssueConfig::B && seen_unresolved_store)
                    return Inhibitor::DepStore;
            }
            if (entry.is(kMemOp) && !entry.is(kPrefetch) &&
                !seen_unexec_mem) {
                seen_unexec_mem = true;
                first_unexec_mem_is_store = entry.is(kStore);
            }
            if (entry.is(kStore) && entry.pendingAddrProds != 0)
                seen_unresolved_store = true;
        }
    }
    return Inhibitor::Maxwin;
}

void
EpochEngine::closeEpoch()
{
    MLPSIM_ASSERT(epochOpen, "closing a closed epoch");

    Inhibitor cause;
    if (triggerIsImiss) {
        cause = Inhibitor::ImissStart;
    } else if (fetchBlock == FetchBlock::Imiss) {
        cause = Inhibitor::ImissEnd;
    } else if (fetchBlock == FetchBlock::Serialize) {
        cause = Inhibitor::Serialize;
    } else if (fetchBlock == FetchBlock::Mispred) {
        cause = Inhibitor::MispredBr;
    } else {
        cause = classifyMaxwinFamily();
        if (cause == Inhibitor::Maxwin &&
            nextDispatchIdx == nextFetchIdx) {
            if (nextFetchIdx >= wl.size())
                cause = Inhibitor::EndOfTrace;
            else if (nextFetchIdx - triggerIdx >= cfg.epochInstHorizon)
                cause = Inhibitor::TriggerDone;
        }
    }

    if (triggerIdx >= cfg.warmupInsts) {
        ++result.epochs;
        result.usefulAccesses += epochAccesses;
        result.dmissAccesses += epochDmiss;
        result.imissAccesses += epochImiss;
        result.pmissAccesses += epochPmiss;
        result.smissAccesses += epochSmiss;
        result.inhibitors.record(cause);
        result.accessesPerEpoch.add(epochAccesses);
        // The inlined enabled() check keeps this per-epoch histogram
        // update out of the hot path unless --metrics-out asked for it.
        if (metrics::enabled()) {
            metrics::cur().observeKey(
                metrics::scopedPath("core/epoch_engine/epoch_insts"),
                nextDispatchIdx - triggerIdx);
        }
    }

    ++currentEpoch;
    epochOpen = false;
    triggerIsImiss = false;
    epochHasLoadMiss = false;
    epochAccesses = epochDmiss = epochImiss = epochPmiss = 0;
    epochSmiss = 0;

    // The epoch's off-chip data arrives with its close: loads whose
    // value was stamped ready at the (new) current epoch may now feed
    // their consumers. None of those consumers can have retired —
    // retirement needs completeEpoch <= the epoch we just left.
    for (const Seq seq : pendingValueWake)
        df.notifyConsumers(df.entryRef(seq));
    pendingValueWake.clear();

    if (fetchBlock == FetchBlock::Imiss) {
        // The blocked instruction's line arrives with the epoch's other
        // accesses; fetch resumes (imissHandled stays set so the miss
        // is not double-counted).
        fetchBlock = FetchBlock::None;
    }
}

uint64_t
EpochEngine::scanEvents(uint64_t from) const
{
    const memory::MissAnnotations &m = *wl.misses;
    const uint64_t store_mask = cfg.finiteStoreBuffer ? ~uint64_t(0) : 0;
    return firstSetBit(from, wl.size(), [&](uint64_t w) {
        return m.dataMissBits().word(w) | m.usefulPrefetchBits().word(w) |
               (m.storeMissBits().word(w) & store_mask);
    });
}

uint64_t
EpochEngine::scanPlane(const util::BitVector &plane, uint64_t from) const
{
    return firstSetBit(from, wl.size(),
                       [&](uint64_t w) { return plane.word(w); });
}

uint64_t
EpochEngine::fetchStopAt(uint64_t from, uint64_t limit, FetchBlock &kind)
{
    // The first instruction in [from, limit) after which fetch() would
    // block: a mispredicted branch, or a serializer when those block.
    if (nextMispred < from)
        nextMispred = scanPlane(wl.branches->mispredicted, from);
    while (nextMispred < limit) {
        // fetch() also checks the class; a bit on anything but a
        // branch does not stop it.
        const trace::TraceChunk &ck = fetchCur.at(nextMispred);
        if (ck.isBranch(uint32_t(nextMispred - ck.base)))
            break;
        nextMispred =
            scanPlane(wl.branches->mispredicted, nextMispred + 1);
    }
    uint64_t stop = std::min(nextMispred, limit);
    kind = FetchBlock::Mispred;
    if (!serializingBlocks)
        return stop;

    // Serializers come from the meta column, scanned only as far as
    // this fetch could reach (a streamed window holds no more).
    if (serializerScan < from) {
        serializerScan = from;
        serializerFound = false;
    }
    while (!serializerFound && serializerScan < stop) {
        const trace::TraceChunk &ck = fetchCur.at(serializerScan);
        const uint8_t *meta = ck.meta.data();
        const uint32_t end =
            uint32_t(std::min<uint64_t>(ck.count, stop - ck.base));
        uint32_t ci = uint32_t(serializerScan - ck.base);
        while (ci < end && (meta[ci] & trace::Instruction::clsMask) !=
                               uint8_t(InstClass::Serializing)) {
            ++ci;
        }
        serializerScan = ck.base + ci;
        serializerFound = ci < end;
    }
    if (serializerFound && serializerScan < stop) {
        stop = serializerScan;
        kind = FetchBlock::Serialize;
    }
    return stop;
}

void
EpochEngine::skipQuietSteps(uint64_t &guard, bool &progress)
{
    // Entered right after retire() with no epoch open, the ROB empty
    // and no instruction miss pending at the fetch point. Then every
    // structure below is empty, and a batch free of off-chip events
    // executes and retires whole in the next iteration (no value is
    // deferred past the current epoch), leaving them empty again.
    MLPSIM_ASSERT(df.quiet() && memFifo.empty() && branchFifo.empty() &&
                      waitingCount == 0 && pendingValueWake.empty() &&
                      iwOccupancy == 0 && fetchBlock != FetchBlock::Imiss,
                  "quiet fast-forward entered with work in flight");

    const uint64_t trace_size = wl.size();
    const uint64_t width = std::min(cfg.robSize, cfg.issueWindowSize);
    uint64_t d = nextDispatchIdx;
    uint64_t f = nextFetchIdx;
    FetchBlock block = fetchBlock;
    uint64_t block_seq = fetchBlockSeq;
    bool stepped = false;
    uint64_t last_batch = 0;

    // One committed step is checkUnblocks, dispatch and fetch of this
    // iteration plus executePasses and retire of the next; a step that
    // would dispatch an event, fetch an instruction miss or make no
    // progress is left to the ordinary phases.
    while (true) {
        // checkUnblocks: the blocking instruction has retired iff it
        // was dispatched (seq <= d, since headSeq == d + 1).
        const bool unblocked =
            block != FetchBlock::None && block_seq <= d;
        FetchBlock next_block = unblocked ? FetchBlock::None : block;
        uint64_t next_block_seq = block_seq;

        const uint64_t batch = std::min(f - d, width);
        if (batch != 0) {
            if (nextEvent < d)
                nextEvent = scanEvents(d);
            if (nextEvent < d + batch)
                break;
        }
        const uint64_t next_d = d + batch;

        uint64_t next_f = f;
        if (next_block == FetchBlock::None) {
            const uint64_t limit =
                std::min(trace_size, next_d + cfg.fetchBufferSize);
            if (f < limit) {
                FetchBlock kind = FetchBlock::None;
                const uint64_t stop = fetchStopAt(f, limit, kind);
                next_f = stop < limit ? stop + 1 : limit;
                if (nextImiss < f)
                    nextImiss = scanPlane(wl.misses->fetchMissBits(), f);
                if (nextImiss < next_f)
                    break;
                if (stop < limit) {
                    next_block = kind;
                    next_block_seq = stop + 1;
                }
            }
        }
        if (!unblocked && batch == 0 && next_f == f)
            break;

        if (guard-- == 0)
            panic("epoch engine livelock at trace index ", f);
        d = next_d;
        f = next_f;
        block = next_block;
        block_seq = next_block_seq;
        last_batch = batch;
        stepped = true;
        window.releaseBefore(d);
    }
    if (!stepped)
        return;

    nextDispatchIdx = d;
    nextFetchIdx = f;
    df.restartAt(d + 1);
    fetchBlock = block;
    fetchBlockSeq = block_seq;
    // The iteration we stop in has just executed and retired the last
    // step's batch.
    progress = last_batch != 0;
}

MlpResult
EpochEngine::run()
{
    const uint64_t trace_size = wl.size();
    result = MlpResult{};
    result.measuredInsts =
        trace_size > cfg.warmupInsts ? trace_size - cfg.warmupInsts : 0;

    // Generous progress guard: every iteration either advances the
    // machine or closes an epoch, both bounded by the trace length.
    uint64_t guard = 64 * trace_size + 1'000'000;
    const uint64_t guard_start = guard;

    while (true) {
        if (guard-- == 0)
            panic("epoch engine livelock at trace index ", nextFetchIdx);

        bool progress = false;
        progress |= executePasses();
        progress |= retire();
        if (!epochOpen && df.empty() && !imissHandled)
            skipQuietSteps(guard, progress);
        progress |= checkUnblocks();
        progress |= dispatch();
        progress |= fetch();
        if (progress)
            continue;

        if (epochOpen) {
            // Epoch boundaries are the engine's cancellation poll
            // points: frequent enough for prompt deadline response,
            // rare enough to stay out of the per-instruction path.
            pollCancellation();
            closeEpoch();
            continue;
        }
        if (nextFetchIdx >= trace_size &&
            nextDispatchIdx == nextFetchIdx && df.empty()) {
            break;
        }
        panic("epoch engine deadlock at trace index ", nextFetchIdx,
              " (rob=", df.occupancy(), " waiting=", waitingCount, ")");
    }

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
              guard_start - guard);
        m.set(metrics::scopedPath("core/epoch_engine/mlp"),
              result.mlp());
    }
    return result;
}

} // namespace mlpsim::core
