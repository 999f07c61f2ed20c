#include "epoch_engine.hh"

#include <algorithm>
#include <bit>

#include "metrics/registry.hh"
#include "util/cancellation.hh"
#include "util/logging.hh"

namespace mlpsim::core {

using trace::InstClass;
using trace::noReg;

// ---------------------------------------------------------------------
// EpochEngine
//
// SeqFifo and StoreMap moved to util/seq_containers.hh so the
// cycle-accurate pipeline's scheduler can share them (DESIGN.md
// sections 12 and 14).

EpochEngine::EpochEngine(const MlpConfig &config,
                         const WorkloadContext &workload)
    : cfg(config), wl(workload),
      branchesInOrder(config.issue == IssueConfig::A ||
                      config.issue == IssueConfig::B ||
                      config.issue == IssueConfig::C),
      serializingBlocks(config.issue != IssueConfig::E &&
                        config.mode != CoreMode::Runahead),
      window(workload), dispatchCur(window), fetchCur(window)
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
    // Consumer links pack a sequence number into 30 bits (DESIGN.md
    // section 12); a single epoch-model trace is far smaller in
    // practice, so this is a hard input limit rather than a mode.
    MLPSIM_ASSERT(wl.size() < (uint64_t(1) << 30),
                  "trace too large for packed sequence links");

    // The ring only needs to cover the architectural ROB (plus
    // runahead's overshoot, which growRing() picks up on demand); cap
    // the up-front allocation so huge configured windows start small.
    const uint64_t init_cap = std::bit_ceil(
        std::min<uint64_t>(std::max<uint64_t>(cfg.robSize, 16), 8192));
    ring.assign(size_t(init_cap), RobEntry{});
    ringMask = uint32_t(init_cap - 1);
    storeProducer.reset(size_t(std::min<uint64_t>(2 * cfg.robSize, 16384)));
    memFifo.reset(256);
    branchFifo.reset(256);
    ready.reserve(256, 64);
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
    return robOccupancy() < cfg.robSize && iwOccupancy < cfg.issueWindowSize;
}

const EpochEngine::RobEntry *
EpochEngine::entryBySeq(uint64_t seq) const
{
    if (seq < headSeq || seq >= tailSeq)
        return nullptr;
    return &ring[size_t(seq) & ringMask];
}

void
EpochEngine::growRing()
{
    std::vector<RobEntry> next(ring.size() * 2);
    const uint32_t new_mask = uint32_t(next.size() - 1);
    for (uint64_t s = headSeq; s < tailSeq; ++s)
        next[size_t(s) & new_mask] = ring[size_t(s) & ringMask];
    ring.swap(next);
    ringMask = new_mask;
}

void
EpochEngine::linkWaitingTail(RobEntry &entry)
{
    const Seq seq = entry.seq;
    entry.waitPrev = waitingTail;
    entry.waitNext = 0;
    if (waitingTail != 0)
        entryRef(waitingTail).waitNext = seq;
    else
        waitingHead = seq;
    waitingTail = seq;
    ++waitingCount;
}

void
EpochEngine::unlinkWaiting(RobEntry &entry)
{
    if (entry.waitPrev != 0)
        entryRef(entry.waitPrev).waitNext = entry.waitNext;
    else
        waitingHead = entry.waitNext;
    if (entry.waitNext != 0)
        entryRef(entry.waitNext).waitPrev = entry.waitPrev;
    else
        waitingTail = entry.waitPrev;
    entry.waitPrev = entry.waitNext = 0;
    MLPSIM_ASSERT(waitingCount > 0, "waiting list underflow");
    --waitingCount;
}

void
EpochEngine::linkUnresolvedStoreTail(RobEntry &entry)
{
    const Seq seq = entry.seq;
    entry.usPrev = usTail;
    entry.usNext = 0;
    if (usTail != 0)
        entryRef(usTail).usNext = seq;
    else
        usHead = seq;
    usTail = seq;
}

void
EpochEngine::makeEntry(uint64_t idx)
{
    // Field reads straight from the chunk columns: dispatch never
    // needs pc or payload, and skipping get()'s full reassembly keeps
    // two dead u64 streams out of a loop that already contends for
    // cache with the entry pool.
    const trace::TraceChunk &ck = dispatchCur.at(idx);
    const uint32_t ci = uint32_t(idx - ck.base);
    const uint8_t dstReg = ck.dst[ci];
    const uint8_t src0 = ck.src0[ci];
    const uint8_t src1 = ck.src1[ci];
    const uint8_t src2 = ck.src2[ci];
    const uint64_t effAddr = ck.effAddr[ci];
    const Seq seq = Seq(idx + 1);
    RobEntry &entry = entryRef(seq);
    entry = RobEntry{};
    entry.seq = seq;

    // Class-determined flag bits come from a table; only the atomic
    // memory case (Serializing with an effective address, an isMem()
    // instruction per trace/instruction.hh) needs a data-dependent
    // adjustment.
    static constexpr uint16_t classFlags[8] = {
        /* Alu         */ 0,
        /* Load        */ kMemOp | kLoadLike,
        /* Store       */ kMemOp | kStore,
        /* Branch      */ kBranch,
        /* Prefetch    */ kMemOp | kPrefetch | kLoadLike,
        /* Serializing */ kSerializing,
        0, 0,
    };
    const InstClass cls = ck.cls(ci);
    const bool atomic_mem =
        cls == InstClass::Serializing && effAddr != 0;
    const bool is_prefetch = cls == InstClass::Prefetch;
    uint16_t flags = classFlags[size_t(cls) & 7];
    if (atomic_mem)
        flags |= kMemOp | kLoadLike;
    if (wl.misses->dataMiss(idx))
        flags |= kDMiss;
    if (cfg.finiteStoreBuffer && wl.misses->storeMiss(idx))
        flags |= kSMiss;
    if (wl.misses->usefulPrefetch(idx))
        flags |= kUsefulPmiss;
    if (cfg.valuePrediction && wl.values && wl.values->isCorrect(idx))
        flags |= kVpCorrect;
    entry.flags = flags;
    entry.dstReg = dstReg;

    // Register renaming: capture the current in-flight producer of each
    // source. For stores, src[0]/src[2] compute the address and src[1]
    // is the data; address producers are recorded first so the
    // config-B "wait for earlier store addresses" check can test them
    // separately.
    Seq prods[maxProds];
    unsigned num_prods = 0;
    auto capture = [&](uint8_t reg) {
        if (reg == noReg)
            return;
        const Seq prod = regProducer[reg];
        if (prod != 0)
            prods[num_prods++] = prod;
    };
    if (entry.is(kStore)) {
        capture(src0);
        capture(src2);
        entry.numAddrProds = uint8_t(num_prods);
        capture(src1);
    } else {
        capture(src0);
        capture(src1);
        capture(src2);
        entry.numAddrProds = uint8_t(num_prods);
    }

    // Memory dependence: a load (or atomic read) whose address was
    // written by an in-flight store forwards from that store, so the
    // store's execution is an additional producer.
    const uint64_t mem_key = effAddr >> 3;
    if (entry.is(kLoadLike) && !is_prefetch) {
        const Seq forward = storeProducer.find(mem_key);
        if (forward != 0 && num_prods < maxProds)
            prods[num_prods++] = forward;
    }
    if (entry.is(kStore) || atomic_mem) {
        storeProducer.put(mem_key, seq);
        entry.storeKey = mem_key + 1;
    }

    if (dstReg != noReg)
        regProducer[dstReg] = seq;

    // Producer registration: a producer whose value is already
    // available contributes nothing; every other producer gets this
    // entry on its consumer list and bumps the pending counters that
    // stand in for the old ready-scan.
    for (unsigned p = 0; p < num_prods; ++p) {
        RobEntry &producer = entryRef(prods[p]);
        if (producer.is(kExecuted) &&
            producer.valueReadyEpoch <= currentEpoch)
            continue;
        entry.nextConsumer[p] = producer.consumerHead;
        producer.consumerHead = (Link(seq) << 2) | Link(p);
        ++entry.pendingProds;
        if (p < entry.numAddrProds)
            ++entry.pendingAddrProds;
    }

    linkWaitingTail(entry);
    if (cfg.issue == IssueConfig::A && entry.is(kMemOp) && !is_prefetch)
        memFifo.push(seq);
    if (branchesInOrder && entry.is(kBranch))
        branchFifo.push(seq);
    if (cfg.issue == IssueConfig::B && entry.is(kStore) &&
        entry.pendingAddrProds != 0)
        linkUnresolvedStoreTail(entry);
    if (entry.pendingProds == 0)
        pushCandidate(entry);
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
    entry.flags |= kExecuted;
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
EpochEngine::notifyConsumers(RobEntry &producer)
{
    Link link = producer.consumerHead;
    producer.consumerHead = 0;
    while (link != 0) {
        RobEntry &consumer = entryRef(Seq(link >> 2));
        const unsigned slot = link & 3;
        link = consumer.nextConsumer[slot];
        consumer.nextConsumer[slot] = 0;
        --consumer.pendingProds;
        if (slot < consumer.numAddrProds &&
            --consumer.pendingAddrProds == 0 && consumer.is(kStore) &&
            cfg.issue == IssueConfig::B)
            resolveStore(consumer);
        if (consumer.pendingProds == 0)
            pushCandidate(consumer);
    }
}

void
EpochEngine::resolveStore(RobEntry &store)
{
    const bool was_head = (usHead == store.seq);
    if (store.usPrev != 0)
        entryRef(store.usPrev).usNext = store.usNext;
    else
        usHead = store.usNext;
    if (store.usNext != 0)
        entryRef(store.usNext).usPrev = store.usPrev;
    else
        usTail = store.usPrev;
    store.usPrev = store.usNext = 0;
    // Only the oldest unresolved store gates config-B issue, so only
    // its resolution can unblock anyone.
    if (was_head)
        wakeBlockedOnStore();
}

void
EpochEngine::wakeBlockedOnStore()
{
    for (const Seq seq : blockedOnStore) {
        RobEntry &entry = entryRef(seq);
        if (entry.seq != seq)
            continue; // retired, slot since reused
        entry.flags &= ~kBlockedStore;
        pushCandidate(entry);
    }
    blockedOnStore.clear();
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
            pushCandidate(entryRef(memFifo.front()));
    }
    if (branchesInOrder && entry.is(kBranch)) {
        branchFifo.pop();
        if (!branchFifo.empty())
            pushCandidate(entryRef(branchFifo.front()));
    }
    if (was_waiting_head && serializingBlocks && waitingHead != 0) {
        RobEntry &head = entryRef(waitingHead);
        if (head.is(kSerializing))
            pushCandidate(head);
    }

    executeEntry(entry);

    if (entry.valueReadyEpoch <= currentEpoch)
        notifyConsumers(entry);
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
    while (!ready.empty()) {
        RobEntry &entry = entryRef(ready.pop());
        entry.flags &= ~kInCand;
        if (entry.is(kExecuted))
            continue;
        // Prefetches are non-binding hints: they neither wait for the
        // memory-ordering constraints of configs A/B nor block other
        // memory operations.
        if (cfg.issue == IssueConfig::A && entry.is(kMemOp) &&
            !entry.is(kPrefetch) && memFifo.front() != entry.seq) {
            continue; // re-woken when the memory queue advances
        }
        if (cfg.issue == IssueConfig::B && entry.is(kLoadLike) &&
            !entry.is(kPrefetch) && usHead != 0 && usHead < entry.seq) {
            if (!entry.is(kBlockedStore)) {
                entry.flags |= kBlockedStore;
                blockedOnStore.push_back(entry.seq);
            }
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
    while (headSeq != tailSeq) {
        RobEntry &head = entryRef(Seq(headSeq));
        if (!head.is(kExecuted) || head.completeEpoch > currentEpoch)
            break;
        if (head.dstReg != noReg && regProducer[head.dstReg] == head.seq)
            regProducer[head.dstReg] = 0;
        if (head.storeKey != 0)
            storeProducer.eraseMatching(head.storeKey - 1, head.seq);
        ++headSeq;
        any = true;
    }
    return any;
}

bool
EpochEngine::dispatch()
{
    bool any = false;
    while (nextDispatchIdx < nextFetchIdx && canDispatchMore()) {
        if (robOccupancy() == ring.size())
            growRing();
        makeEntry(nextDispatchIdx);
        ++tailSeq;
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
        // Position the window on idx's chunk BEFORE touching any
        // annotation plane: in a fused run the gated stream's chunk
        // delivery is the acquire that makes the planes below the
        // frontier readable, so the plane lookups for idx must come
        // after it.
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
        if (fetchBlockSeq < headSeq) {
            fetchBlock = FetchBlock::None;
            return true;
        }
        return false;
      case FetchBlock::Mispred:
      {
        if (fetchBlockSeq < headSeq) {
            fetchBlock = FetchBlock::None;
            return true;
        }
        const RobEntry *branch = entryBySeq(fetchBlockSeq);
        if (branch && branch->is(kExecuted)) {
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
             seq = entryRef(seq).waitNext) {
            const RobEntry &entry = entryRef(seq);
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
        notifyConsumers(entryRef(seq));
    pendingValueWake.clear();

    if (fetchBlock == FetchBlock::Imiss) {
        // The blocked instruction's line arrives with the epoch's other
        // accesses; fetch resumes (imissHandled stays set so the miss
        // is not double-counted).
        fetchBlock = FetchBlock::None;
    }
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
            nextDispatchIdx == nextFetchIdx && headSeq == tailSeq) {
            break;
        }
        panic("epoch engine deadlock at trace index ", nextFetchIdx,
              " (rob=", robOccupancy(), " waiting=", waitingCount, ")");
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
