/**
 * @file
 * The epoch-model MLP engine (paper Section 3).
 *
 * The engine partitions a dynamic instruction stream into epoch sets.
 * Time is measured in epochs, not cycles: on-chip work inside an epoch
 * is free, every off-chip access issued within an epoch completes at
 * its end, and the epoch's extent through the instruction stream is
 * bounded by the window termination conditions of Section 3.2 —
 * window/ROB capacity, serializing instructions, instruction-fetch
 * misses and unresolvable mispredicted branches — plus the issue-policy
 * constraints of Table 2. Average MLP is the ratio of useful off-chip
 * accesses to epochs.
 *
 * Out-of-order and runahead machines are handled here; the in-order
 * models live in inorder_model.hh.
 *
 * Implementation notes (DESIGN.md section 12). Which instruction waits
 * on which is the dataflow window's (core/dataflow_window.hh), shared
 * with the cycle-accurate pipeline: a power-of-two ring indexed by
 * sequence number, renaming and store forwarding, and intrusive
 * consumer lists, so an instruction is re-examined only when one of
 * its producers delivers a value (O(dependence edges) instead of
 * repeated O(window) rescans). This engine adds epoch timing and the
 * issue-policy constraints of Table 2 as intrusive in-order queues
 * (memory ops for config A, branches for configs A-C, the
 * oldest-unexecuted head for serializing instructions; config B's
 * unresolved stores are the window's) whose head advances wake exactly
 * the instructions those policies were blocking. Ready instructions
 * drain oldest first, which reproduces the old scan's execution order
 * — and therefore every MlpResult bit — exactly.
 *
 * Quiet-stretch fast-forward. Between off-chip events the machine is
 * a conveyor: with no epoch open and the ROB empty, each loop
 * iteration dispatches min(buffered, ROB, issue window) instructions,
 * refills the fetch buffer (stopping after a mispredicted branch or a
 * blocking serializer, before an instruction miss, or at the trace
 * end), and the next iteration executes and retires that whole batch.
 * Nothing in such a batch can touch an MlpResult, so the engine
 * replays these iterations in index arithmetic — no entry is built,
 * executed or retired — until the first iteration that would
 * dispatch an off-chip event or fetch an instruction miss, where the
 * ordinary phases take over. Each replayed iteration still counts
 * against the livelock guard and in loop_iterations, so the
 * epoch-edges golden pins the replay step for step.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "core/chunk_window.hh"
#include "core/dataflow_window.hh"
#include "core/mlp_config.hh"
#include "core/mlp_result.hh"
#include "core/workload_context.hh"
#include "util/seq_containers.hh"

namespace mlpsim::core {

/** Epoch-model simulator for OoO and runahead machines. */
class EpochEngine
{
  public:
    EpochEngine(const MlpConfig &config, const WorkloadContext &workload);

    /** Partition the whole trace into epochs and return statistics. */
    MlpResult run();

  private:
    /** Why fetch is currently stopped. */
    enum class FetchBlock : uint8_t { None, Imiss, Serialize, Mispred };

    using Seq = util::Seq;
    using Epoch = uint32_t;

    // --- RobEntry::flags bits: the window's, then the engine's ---
    using enum DataflowEntry::Flag;
    static constexpr uint16_t kDMiss = kFirstEngineFlag << 0; //!< data
    static constexpr uint16_t kSMiss = kFirstEngineFlag << 1; //!< store
    static constexpr uint16_t kUsefulPmiss = kFirstEngineFlag << 2;
    static constexpr uint16_t kVpCorrect = kFirstEngineFlag << 3;

    /** One in-flight instruction, exactly one cache line; kDone means
     *  executed. */
    struct RobEntry : DataflowEntry
    {
        Epoch valueReadyEpoch = 0;     //!< consumers may read from here
        Epoch completeEpoch = 0;       //!< retirement allowed from here
        Seq waitPrev = 0, waitNext = 0;   //!< unexecuted-entry list
    };

    static_assert(sizeof(RobEntry) == 64,
                  "RobEntry must stay one cache line; see the "
                  "packed-layout notes in DESIGN.md section 12");

    // --- pipeline phases (each returns whether it made progress) ---
    bool executePasses();
    bool retire();
    bool dispatch();
    bool fetch();
    bool checkUnblocks();
    void closeEpoch();
    void skipQuietSteps(uint64_t &guard, bool &progress);

    // --- helpers ---
    bool runaheadActive() const;
    bool canDispatchMore() const;
    void makeEntry(uint64_t idx);
    void executeAt(RobEntry &entry);
    void executeEntry(RobEntry &entry);
    void openEpochIfNeeded(uint64_t idx, bool imiss_trigger,
                           bool load_trigger);
    Inhibitor classifyMaxwinFamily() const;
    void linkWaitingTail(RobEntry &entry);
    void unlinkWaiting(RobEntry &entry);

    // --- quiet-stretch lookahead (first hit at or after @p from) ---
    uint64_t scanEvents(uint64_t from) const;
    uint64_t scanPlane(const util::BitVector &plane, uint64_t from) const;
    uint64_t fetchStopAt(uint64_t from, uint64_t limit, FetchBlock &kind);

    // --- configuration and inputs ---
    const MlpConfig cfg;
    const WorkloadContext &wl;
    const bool branchesInOrder;
    const bool serializingBlocks;
    ChunkWindow window;       //!< trace chunks (buffer- or stream-backed)
    InstCursor dispatchCur;   //!< makeEntry's trailing cursor
    InstCursor fetchCur;      //!< fetch's leading cursor

    // --- machine state ---
    DataflowWindow<RobEntry> df;       //!< ROB ring, renaming, wakeup
    Seq waitingHead = 0;               //!< unexecuted entries, seq order
    Seq waitingTail = 0;
    uint32_t waitingCount = 0;
    unsigned iwOccupancy = 0;          //!< dispatched, not executed
    util::SeqFifo memFifo;             //!< config-A in-order memory ops
    util::SeqFifo branchFifo;          //!< in-order branches (A/B/C)
    std::vector<Seq> pendingValueWake; //!< dMiss values for epoch close

    uint64_t nextFetchIdx = 0;         //!< next trace index to fetch
    uint64_t nextDispatchIdx = 0;      //!< next trace index to dispatch
    bool imissHandled = false;         //!< nextFetchIdx's Imiss counted

    FetchBlock fetchBlock = FetchBlock::None;
    uint64_t fetchBlockSeq = 0;

    // --- quiet-stretch lookahead caches: each holds the first hit at
    // or after some earlier query point, so a later query only
    // rescans once it passes the cached hit ---
    uint64_t nextEvent = 0;      //!< dataMiss|usefulPrefetch[|storeMiss]
    uint64_t nextImiss = 0;      //!< fetchMiss
    uint64_t nextMispred = 0;    //!< mispredicted bit (branch checked)
    uint64_t serializerScan = 0; //!< none in [query, serializerScan)
    bool serializerFound = false; //!< serializerScan is a serializer

    // --- epoch state ---
    Epoch currentEpoch = 1;
    bool epochOpen = false;
    bool triggerIsImiss = false;
    bool epochHasLoadMiss = false;
    uint64_t triggerIdx = 0;
    uint64_t triggerSeq = 0;
    uint64_t epochAccesses = 0;
    uint64_t epochDmiss = 0;
    uint64_t epochImiss = 0;
    uint64_t epochPmiss = 0;
    uint64_t epochSmiss = 0;

    MlpResult result;
};

} // namespace mlpsim::core
