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
 * Implementation notes (DESIGN.md section 12). The per-instruction
 * machinery is event-driven: in-flight instructions live in a
 * power-of-two ring buffer indexed by sequence number (entry lookup is
 * one mask, no deque traversal), every entry carries an intrusive
 * consumer list so it is re-examined only when one of its at most four
 * producers delivers a value (O(dependence edges) instead of repeated
 * O(window) rescans), and the issue-policy constraints of Table 2 are
 * tracked with intrusive in-order queues (memory ops for config A,
 * unresolved stores for config B, branches for configs A-C, the
 * oldest-unexecuted head for serializing instructions) whose head
 * advances wake exactly the instructions those policies were blocking.
 * Ready instructions drain through a min-heap ordered by sequence
 * number, which reproduces the old scan's oldest-first execution
 * order — and therefore every MlpResult bit — exactly.
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

#include <array>
#include <cstdint>
#include <vector>

#include "core/chunk_window.hh"
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

    /** Maximum producers per instruction: 3 registers + 1 memory. */
    static constexpr unsigned maxProds = 4;

    /** Sequence number: trace index + 1 (0 = null link). The 30-bit
     *  budget comes from the packed consumer links below. */
    using Seq = util::Seq;
    using Epoch = uint32_t;

    /** Consumer link: (consumer seq << 2) | producer slot; 0 = none. */
    using Link = uint32_t;

    // --- RobEntry::flags bits ---
    static constexpr uint16_t kExecuted = 1 << 0;
    static constexpr uint16_t kMemOp = 1 << 1;    //!< memory ordering
    static constexpr uint16_t kPrefetch = 1 << 2; //!< non-binding hint
    static constexpr uint16_t kLoadLike = 1 << 3; //!< load/prefetch/atomic
    static constexpr uint16_t kStore = 1 << 4;
    static constexpr uint16_t kBranch = 1 << 5;
    static constexpr uint16_t kSerializing = 1 << 6;
    static constexpr uint16_t kDMiss = 1 << 7;    //!< data goes off-chip
    static constexpr uint16_t kSMiss = 1 << 8;    //!< store fill off-chip
    static constexpr uint16_t kUsefulPmiss = 1 << 9;
    static constexpr uint16_t kVpCorrect = 1 << 10;
    static constexpr uint16_t kInCand = 1 << 11;  //!< in the ready heap
    static constexpr uint16_t kBlockedStore = 1 << 12; //!< config-B wait

    /**
     * One in-flight instruction: exactly one cache line. Producer seqs
     * are not stored — registration converts them into consumer-list
     * membership and the two pending counters; dstReg is cached so
     * retirement never touches the trace.
     */
    struct RobEntry
    {
        Seq seq = 0;
        Epoch valueReadyEpoch = 0;     //!< consumers may read from here
        Epoch completeEpoch = 0;       //!< retirement allowed from here
        Link consumerHead = 0;         //!< newest-first waiter chain
        Link nextConsumer[maxProds] = {}; //!< chain tail per input slot
        Seq waitPrev = 0, waitNext = 0;   //!< unexecuted-entry list
        Seq usPrev = 0, usNext = 0;       //!< unresolved-store list (B)
        uint64_t storeKey = 0;         //!< store-map key + 1 (stores)
        uint8_t pendingProds = 0;      //!< producers not yet value-ready
        uint8_t pendingAddrProds = 0;  //!< ... among the address inputs
        uint8_t numAddrProds = 0;      //!< inputs 0..n) form the address
        uint8_t dstReg = 0;            //!< destination (noReg if none)
        uint16_t flags = 0;
        uint16_t pad = 0;

        bool is(uint16_t f) const { return (flags & f) != 0; }
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
    void notifyConsumers(RobEntry &producer);
    void resolveStore(RobEntry &store);
    void wakeBlockedOnStore();
    void openEpochIfNeeded(uint64_t idx, bool imiss_trigger,
                           bool load_trigger);
    Inhibitor classifyMaxwinFamily() const;

    // --- quiet-stretch lookahead (first hit at or after @p from) ---
    uint64_t scanEvents(uint64_t from) const;
    uint64_t scanPlane(const util::BitVector &plane, uint64_t from) const;
    uint64_t fetchStopAt(uint64_t from, uint64_t limit, FetchBlock &kind);

    uint64_t robOccupancy() const { return tailSeq - headSeq; }

    RobEntry &entryRef(Seq seq) { return ring[seq & ringMask]; }
    const RobEntry &entryRef(Seq seq) const { return ring[seq & ringMask]; }

    /** Checked lookup for seqs that may already have retired. */
    const RobEntry *entryBySeq(uint64_t seq) const;

    void growRing();
    void linkWaitingTail(RobEntry &entry);
    void unlinkWaiting(RobEntry &entry);
    void linkUnresolvedStoreTail(RobEntry &entry);

    /** Pool @p entry unless it is already pooled or executed. */
    void
    pushCandidate(RobEntry &entry)
    {
        if (entry.is(kInCand) || entry.is(kExecuted))
            return;
        entry.flags |= kInCand;
        ready.push(entry.seq);
    }

    // --- configuration and inputs ---
    const MlpConfig cfg;
    const WorkloadContext &wl;
    const bool branchesInOrder;
    const bool serializingBlocks;
    ChunkWindow window;       //!< trace chunks (buffer- or stream-backed)
    InstCursor dispatchCur;   //!< makeEntry's trailing cursor
    InstCursor fetchCur;      //!< fetch's leading cursor

    // --- machine state ---
    std::vector<RobEntry> ring;        //!< power-of-two ring, seq & mask
    uint32_t ringMask = 0;
    uint64_t headSeq = 1;              //!< oldest in-flight seq
    uint64_t tailSeq = 1;              //!< next seq to allocate
    Seq waitingHead = 0;               //!< unexecuted entries, seq order
    Seq waitingTail = 0;
    uint32_t waitingCount = 0;
    Seq usHead = 0;                    //!< unresolved stores (config B)
    Seq usTail = 0;
    unsigned iwOccupancy = 0;          //!< dispatched, not executed
    std::array<Seq, trace::numArchRegs> regProducer{};
    util::StoreMap storeProducer;      //!< see util/seq_containers.hh
    util::SeqFifo memFifo;             //!< config-A in-order memory ops
    util::SeqFifo branchFifo;          //!< in-order branches (A/B/C)

    util::ReadyPool ready;             //!< ready candidates, oldest first
    std::vector<Seq> blockedOnStore;   //!< config-B entries to re-wake
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
