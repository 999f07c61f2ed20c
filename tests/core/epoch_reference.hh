/**
 * @file
 * The epoch engine as a loop over pipeline phases, kept as the
 * reference the one-pass engine is checked against (DESIGN.md
 * section 12, EpochPassEquivalence).
 *
 * Every loop iteration runs execute, retire, fetch-unblock, dispatch
 * and fetch, in that order; an iteration in which none of them acts
 * closes the open epoch, or ends the run when nothing is left. The
 * execute phase scans the in-flight window oldest first and executes
 * every instruction whose producers' values are available and whose
 * Table 2 issue rules allow it. Eligibility reads only older entries,
 * so one ascending scan reaches the same closure the event-driven
 * loop's ready pool did. The loop counts its iterations, which is
 * what the engine publishes as core/epoch_engine/loop_iterations, and
 * records each measured epoch's instruction count (epoch_insts).
 *
 * Deliberately naive: a deque ROB, linear scans, no fast-forward.
 * Only scripted and other materialised traces of test size run here.
 */
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

#include "core/mlpsim.hh"
#include "util/logging.hh"

namespace mlpsim::test {

class ReferenceEpochLoop
{
  public:
    struct Outcome
    {
        core::MlpResult result;
        uint64_t loopIterations = 0;
        /** Histogram of instructions dispatched per measured epoch. */
        std::map<uint64_t, uint64_t> epochInsts;
    };

    ReferenceEpochLoop(const core::MlpConfig &config,
                       const core::WorkloadContext &workload)
        : cfg(config), wl(workload), buf(workload.source->materialized()),
          branchesInOrder(config.issue == core::IssueConfig::A ||
                          config.issue == core::IssueConfig::B ||
                          config.issue == core::IssueConfig::C),
          serializingBlocks(config.issue != core::IssueConfig::E &&
                            config.mode != core::CoreMode::Runahead)
    {
        MLPSIM_ASSERT(buf, "the reference loop reads materialised traces");
    }

    Outcome
    run()
    {
        const uint64_t n = wl.size();
        out.result.measuredInsts =
            n > cfg.warmupInsts ? n - cfg.warmupInsts : 0;
        while (true) {
            ++out.loopIterations;
            MLPSIM_ASSERT(out.loopIterations < 64 * n + 1'000'000,
                          "reference epoch loop livelock");
            bool progress = executePass();
            progress |= retire();
            progress |= checkUnblocks();
            progress |= dispatch();
            progress |= fetch();
            if (progress)
                continue;
            if (epochOpen) {
                closeEpoch();
                continue;
            }
            MLPSIM_ASSERT(nextFetchIdx >= n &&
                              nextDispatchIdx == nextFetchIdx &&
                              rob.empty(),
                          "reference epoch loop deadlock");
            break;
        }
        return out;
    }

  private:
    enum class FetchBlock : uint8_t { None, Imiss, Serialize, Mispred };

    struct Entry
    {
        uint64_t seq = 0;
        bool done = false;
        bool memOp = false, prefetch = false, loadLike = false;
        bool store = false, branch = false, serializing = false;
        bool dMiss = false, sMiss = false, usefulPmiss = false;
        bool vpCorrect = false;
        uint8_t dstReg = trace::noReg;
        uint64_t storeKey = 0; //!< address key + 1 (stores, atomics)
        std::vector<uint64_t> prods; //!< in-flight producers' seqs
        unsigned numAddrProds = 0;   //!< prods [0, n) form the address
        uint32_t valueReadyEpoch = 0;
        uint32_t completeEpoch = 0;
    };

    Entry *
    find(uint64_t seq)
    {
        if (seq < headSeq || seq >= headSeq + rob.size())
            return nullptr;
        return &rob[size_t(seq - headSeq)];
    }

    /** A producer's value is available: retired, or executed with its
     *  value ready in the current epoch. */
    bool
    available(uint64_t seq)
    {
        const Entry *p = find(seq);
        return !p || (p->done && p->valueReadyEpoch <= currentEpoch);
    }

    bool
    allAvailable(const Entry &e, size_t count)
    {
        for (size_t k = 0; k < count; ++k) {
            if (!available(e.prods[k]))
                return false;
        }
        return true;
    }

    /** What the Table 2 rules read of the entries older than the one
     *  being scanned. */
    struct Older
    {
        bool unexecutedMemOp = false;
        bool unexecutedBranch = false;
        bool unexecuted = false;
        bool unresolvedStore = false;
    };

    bool
    eligible(const Entry &e, const Older &older)
    {
        if (cfg.issue == core::IssueConfig::A && e.memOp && !e.prefetch &&
            older.unexecutedMemOp)
            return false;
        if (cfg.issue == core::IssueConfig::B && e.loadLike &&
            !e.prefetch && older.unresolvedStore)
            return false;
        if (branchesInOrder && e.branch && older.unexecutedBranch)
            return false;
        if (e.serializing && serializingBlocks && older.unexecuted)
            return false;
        return allAvailable(e, e.prods.size());
    }

    void
    openEpochIfNeeded(uint64_t idx, bool imiss_trigger, bool load_trigger)
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
    execute(Entry &e)
    {
        e.done = true;
        --unexecuted;
        e.valueReadyEpoch = e.completeEpoch = currentEpoch;
        const uint64_t idx = e.seq - 1;
        if (e.dMiss) {
            openEpochIfNeeded(idx, false, true);
            ++epochAccesses;
            ++epochDmiss;
            e.completeEpoch = currentEpoch + 1;
            e.valueReadyEpoch =
                e.vpCorrect ? currentEpoch : currentEpoch + 1;
        }
        if (e.usefulPmiss) {
            openEpochIfNeeded(idx, false, false);
            ++epochAccesses;
            ++epochPmiss;
        }
        if (e.sMiss) {
            openEpochIfNeeded(idx, false, true);
            ++epochAccesses;
            ++epochSmiss;
            e.completeEpoch = currentEpoch + 1;
        }
    }

    bool
    executePass()
    {
        bool any = false;
        Older older;
        for (Entry &e : rob) {
            if (!e.done && eligible(e, older)) {
                execute(e);
                any = true;
            }
            older.unexecutedMemOp |= e.memOp && !e.prefetch && !e.done;
            older.unexecutedBranch |= e.branch && !e.done;
            older.unexecuted |= !e.done;
            older.unresolvedStore |=
                e.store && !allAvailable(e, e.numAddrProds);
        }
        return any;
    }

    bool
    retire()
    {
        bool any = false;
        while (!rob.empty() && rob.front().done &&
               rob.front().completeEpoch <= currentEpoch) {
            const Entry &e = rob.front();
            if (e.dstReg != trace::noReg && regProducer[e.dstReg] == e.seq)
                regProducer[e.dstReg] = 0;
            if (e.storeKey != 0) {
                auto it = storeProducer.find(e.storeKey - 1);
                if (it != storeProducer.end() && it->second == e.seq)
                    storeProducer.erase(it);
            }
            rob.pop_front();
            ++headSeq;
            any = true;
        }
        return any;
    }

    bool
    runaheadActive() const
    {
        return cfg.mode == core::CoreMode::Runahead && epochOpen &&
               epochHasLoadMiss;
    }

    bool
    canDispatchMore() const
    {
        if (runaheadActive())
            return nextDispatchIdx + 1 - triggerSeq <=
                   cfg.maxRunaheadDistance;
        return rob.size() < cfg.robSize &&
               unexecuted < cfg.issueWindowSize;
    }

    bool
    dispatch()
    {
        bool any = false;
        while (nextDispatchIdx < nextFetchIdx && canDispatchMore()) {
            const uint64_t idx = nextDispatchIdx++;
            const trace::Instruction inst = buf->at(size_t(idx));
            Entry e;
            e.seq = idx + 1;
            const trace::InstClass cls = inst.cls();
            const bool atomic =
                cls == trace::InstClass::Serializing && inst.effAddr != 0;
            e.prefetch = cls == trace::InstClass::Prefetch;
            e.store = cls == trace::InstClass::Store;
            e.branch = cls == trace::InstClass::Branch;
            e.serializing = cls == trace::InstClass::Serializing;
            e.loadLike =
                cls == trace::InstClass::Load || e.prefetch || atomic;
            e.memOp = e.loadLike || e.store;
            e.dstReg = inst.dst;
            e.dMiss = wl.misses->dataMiss(idx);
            e.sMiss = cfg.finiteStoreBuffer && wl.misses->storeMiss(idx);
            e.usefulPmiss = wl.misses->usefulPrefetch(idx);
            e.vpCorrect = cfg.valuePrediction && wl.values &&
                          wl.values->isCorrect(idx);

            auto capture = [&](uint8_t reg) {
                if (reg != trace::noReg && regProducer[reg] != 0)
                    e.prods.push_back(regProducer[reg]);
            };
            if (e.store) {
                capture(inst.src[0]);
                capture(inst.src[2]);
                e.numAddrProds = unsigned(e.prods.size());
                capture(inst.src[1]);
            } else {
                for (uint8_t reg : inst.src)
                    capture(reg);
                e.numAddrProds = unsigned(e.prods.size());
            }
            const uint64_t key = inst.effAddr >> 3;
            if (e.loadLike && !e.prefetch) {
                auto it = storeProducer.find(key);
                if (it != storeProducer.end())
                    e.prods.push_back(it->second);
            }
            if (e.store || atomic) {
                storeProducer[key] = e.seq;
                e.storeKey = key + 1;
            }
            if (e.dstReg != trace::noReg)
                regProducer[e.dstReg] = e.seq;
            rob.push_back(std::move(e));
            ++unexecuted;
            any = true;
        }
        return any;
    }

    bool
    fetch()
    {
        bool any = false;
        while (fetchBlock == FetchBlock::None && nextFetchIdx < wl.size() &&
               nextFetchIdx - nextDispatchIdx < cfg.fetchBufferSize) {
            if (epochOpen &&
                nextFetchIdx - triggerIdx >= cfg.epochInstHorizon)
                break;
            const uint64_t idx = nextFetchIdx;
            if (wl.misses->fetchMiss(idx) && !imissHandled) {
                if (!epochOpen &&
                    (nextDispatchIdx < nextFetchIdx || unexecuted != 0))
                    break;
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
            const trace::Instruction inst = buf->at(size_t(idx));
            if (inst.isBranch() && wl.branches->isMispredict(idx)) {
                fetchBlock = FetchBlock::Mispred;
                fetchBlockSeq = idx + 1;
                break;
            }
            if (inst.isSerializing() && serializingBlocks) {
                fetchBlock = FetchBlock::Serialize;
                fetchBlockSeq = idx + 1;
                break;
            }
        }
        return any;
    }

    bool
    checkUnblocks()
    {
        if (fetchBlock != FetchBlock::Serialize &&
            fetchBlock != FetchBlock::Mispred)
            return false;
        const Entry *blocker = find(fetchBlockSeq);
        const bool retired = fetchBlockSeq < headSeq;
        if (retired ||
            (fetchBlock == FetchBlock::Mispred && blocker && blocker->done)) {
            fetchBlock = FetchBlock::None;
            return true;
        }
        return false;
    }

    core::Inhibitor
    classifyMaxwinFamily()
    {
        using core::Inhibitor;
        using core::IssueConfig;
        if (cfg.issue != IssueConfig::A && cfg.issue != IssueConfig::B)
            return Inhibitor::Maxwin;
        bool seen_unexec_mem = false;
        bool first_unexec_mem_is_store = false;
        bool seen_unresolved_store = false;
        for (Entry &e : rob) {
            if (e.done)
                continue;
            const bool ready = allAvailable(e, e.prods.size());
            if (e.loadLike && !e.prefetch && ready) {
                if (cfg.issue == IssueConfig::A && seen_unexec_mem)
                    return first_unexec_mem_is_store
                               ? Inhibitor::DepStore
                               : Inhibitor::MissingLoad;
                if (cfg.issue == IssueConfig::B && seen_unresolved_store)
                    return Inhibitor::DepStore;
            }
            if (e.memOp && !e.prefetch && !seen_unexec_mem) {
                seen_unexec_mem = true;
                first_unexec_mem_is_store = e.store;
            }
            if (e.store && !allAvailable(e, e.numAddrProds))
                seen_unresolved_store = true;
        }
        return Inhibitor::Maxwin;
    }

    void
    closeEpoch()
    {
        using core::Inhibitor;
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
            core::MlpResult &r = out.result;
            ++r.epochs;
            r.usefulAccesses += epochAccesses;
            r.dmissAccesses += epochDmiss;
            r.imissAccesses += epochImiss;
            r.pmissAccesses += epochPmiss;
            r.smissAccesses += epochSmiss;
            r.inhibitors.record(cause);
            r.accessesPerEpoch.add(epochAccesses);
            ++out.epochInsts[nextDispatchIdx - triggerIdx];
        }
        ++currentEpoch;
        epochOpen = triggerIsImiss = epochHasLoadMiss = false;
        epochAccesses = epochDmiss = epochImiss = epochPmiss =
            epochSmiss = 0;
        if (fetchBlock == FetchBlock::Imiss)
            fetchBlock = FetchBlock::None;
    }

    const core::MlpConfig cfg;
    const core::WorkloadContext &wl;
    const trace::TraceBuffer *buf;
    const bool branchesInOrder;
    const bool serializingBlocks;

    std::deque<Entry> rob;
    uint64_t headSeq = 1;
    uint64_t unexecuted = 0; //!< dispatched, not yet executed
    std::array<uint64_t, 256> regProducer{};
    std::unordered_map<uint64_t, uint64_t> storeProducer;

    uint64_t nextFetchIdx = 0;
    uint64_t nextDispatchIdx = 0;
    bool imissHandled = false;
    FetchBlock fetchBlock = FetchBlock::None;
    uint64_t fetchBlockSeq = 0;

    uint32_t currentEpoch = 1;
    bool epochOpen = false;
    bool triggerIsImiss = false;
    bool epochHasLoadMiss = false;
    uint64_t triggerIdx = 0;
    uint64_t triggerSeq = 0;
    uint64_t epochAccesses = 0, epochDmiss = 0, epochImiss = 0;
    uint64_t epochPmiss = 0, epochSmiss = 0;

    Outcome out;
};

} // namespace mlpsim::test
