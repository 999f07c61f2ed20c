/**
 * @file
 * The dataflow window: which in-flight instruction waits on which.
 *
 * The epoch engine's dependence side (DESIGN.md section 12). The
 * cycle-accurate pipeline (section 14) sees the same register and
 * memory dependences but needs none of this: its program-order pass
 * reads only each register's and address's newest writer. This class
 * template holds:
 *
 *  - the power-of-two ring of in-flight entries, indexed by sequence
 *    number (trace index + 1; 0 is the null link);
 *  - renaming: the in-flight producer of each architectural register
 *    and, through util::StoreMap, the newest in-flight store to each
 *    address, whose execution a later load forwards from; both are
 *    released when their producer retires;
 *  - consumer-list registration at dispatch and the wakeup walk when a
 *    producer's value becomes available (notifyConsumers);
 *  - config B's list of stores with unresolved addresses and the loads
 *    parked behind its oldest member (Table 2);
 *  - the ascending-seq ready pool.
 *
 * The engine derives its entry from DataflowEntry and keeps only what
 * is its own: its timing (when a producer's value is available, when an
 * entry may retire), its Table 2 FIFO policies and its annotation flag
 * bits. The template has no virtual calls, so the hot path inlines.
 */
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "trace/trace_chunk.hh"
#include "util/logging.hh"
#include "util/seq_containers.hh"

namespace mlpsim::core {

/** Maximum producers per instruction: 3 registers + 1 memory. */
inline constexpr unsigned maxProds = 4;

// Every source register and the forwarding store get their own slot,
// so no edge is ever dropped. A producer feeding two sources takes two
// slots; its two links sit next to each other on its consumer chain,
// so one notifyConsumers walk releases both.
static_assert(trace::maxSrcRegs + 1 <= maxProds,
              "a producer slot per source register plus one for the "
              "forwarding store");

/**
 * The part of an in-flight entry the dataflow window owns. Producer
 * seqs are not stored: registration turns them into consumer-list
 * membership and the two pending counters. dstReg is cached so
 * retirement never touches the trace.
 */
struct DataflowEntry
{
    using Seq = util::Seq;

    /** Consumer link: (consumer seq << 2) | producer slot; 0 = none. */
    using Link = uint32_t;

    /** Flag bits the window owns; engine-only bits start at
     *  kFirstEngineFlag. */
    enum Flag : uint16_t {
        kDone = 1 << 0,         //!< executed (epoch) / issued (cycle)
        kMemOp = 1 << 1,        //!< memory ordering
        kPrefetch = 1 << 2,     //!< non-binding hint
        kLoadLike = 1 << 3,     //!< load/prefetch/atomic
        kStore = 1 << 4,
        kBranch = 1 << 5,
        kSerializing = 1 << 6,
        kInCand = 1 << 7,       //!< in the ready pool
        kBlockedStore = 1 << 8, //!< parked behind a config-B store
        kFirstEngineFlag = 1 << 9,
    };

    Seq seq = 0;
    Link consumerHead = 0;            //!< newest-first waiter chain
    Link nextConsumer[maxProds] = {}; //!< chain tail per input slot
    Seq usPrev = 0, usNext = 0;       //!< unresolved-store list (B)
    uint64_t storeKey = 0;            //!< store-map key + 1 (stores)
    uint8_t pendingProds = 0;         //!< producers not yet available
    uint8_t pendingAddrProds = 0;     //!< ... among the address inputs
    uint8_t numAddrProds = 0;         //!< inputs 0..n) form the address
    uint8_t dstReg = 0;               //!< destination (noReg if none)
    uint16_t flags = 0;

    bool is(uint16_t f) const { return (flags & f) != 0; }
};

/** Dependence tracking over in-flight entries of type @p Entry. */
template <typename Entry>
class DataflowWindow
{
    static_assert(std::is_base_of_v<DataflowEntry, Entry>);

  public:
    using Seq = util::Seq;
    using Link = DataflowEntry::Link;
    using enum DataflowEntry::Flag;

    /**
     * @param trace_size instructions in the trace (links pack a seq
     *                   into 30 bits)
     * @param rob_size   architectural window, to size the initial ring
     * @param store_order config B: loads wait until every older store
     *                   address is known
     */
    DataflowWindow(uint64_t trace_size, uint64_t rob_size, bool store_order)
        : storeOrder(store_order)
    {
        // A single trace is far smaller than 2^30 in practice, so this
        // is a hard input limit rather than a mode.
        MLPSIM_ASSERT(trace_size < (uint64_t(1) << 30),
                      "trace too large for packed sequence links");
        // The ring only needs to cover the architectural ROB (plus
        // runahead's overshoot, which dispatch() grows into on demand);
        // cap the up-front allocation so huge windows start small.
        const uint64_t init_cap = std::bit_ceil(
            std::min<uint64_t>(std::max<uint64_t>(rob_size, 16), 8192));
        ring.assign(size_t(init_cap), Entry{});
        ringMask = uint32_t(init_cap - 1);
        storeProducer.reset(size_t(std::min<uint64_t>(2 * rob_size, 16384)));
        ready.reserve(256, 64);
    }

    // --- the ring ---

    Entry &entryRef(Seq seq) { return ring[seq & ringMask]; }
    const Entry &entryRef(Seq seq) const { return ring[seq & ringMask]; }

    /** Checked lookup for seqs that may already have retired. */
    const Entry *
    find(uint64_t seq) const
    {
        if (seq < headSeq || seq >= tailSeq)
            return nullptr;
        return &ring[size_t(seq) & ringMask];
    }

    uint64_t occupancy() const { return tailSeq - headSeq; }
    bool empty() const { return headSeq == tailSeq; }
    uint64_t oldestSeq() const { return headSeq; }
    Entry &oldest() { return entryRef(Seq(headSeq)); }

    /** Restart an empty window so the next dispatch gets @p seq. */
    void
    restartAt(uint64_t seq)
    {
        MLPSIM_ASSERT(empty(), "restarting a window with entries in flight");
        headSeq = tailSeq = seq;
    }

    /**
     * Allocate the next seq for chunk row @p ci: class flags, register
     * producers, the store-to-load forwarding edge, consumer-list
     * registration and, under config B, the unresolved-store list. A
     * producer for which @p available returns true adds no edge; an
     * entry left with none enters the ready pool.
     */
    template <typename Available>
    Entry &
    dispatch(const trace::TraceChunk &ck, uint32_t ci, Available &&available)
    {
        if (occupancy() == ring.size())
            growRing();
        // Field reads straight from the chunk columns: dispatch never
        // needs pc or payload, and skipping get()'s full reassembly
        // keeps two dead u64 streams out of the loop.
        const uint8_t dstReg = ck.dst[ci];
        const uint8_t src0 = ck.src0[ci];
        const uint8_t src1 = ck.src1[ci];
        const uint8_t src2 = ck.src2[ci];
        const uint64_t effAddr = ck.effAddr[ci];
        const Seq seq = Seq(tailSeq++);
        Entry &entry = entryRef(seq);
        entry = Entry{};
        entry.seq = seq;

        // Class-determined flag bits come from a table; only the atomic
        // memory case (Serializing with an effective address, an
        // isMem() instruction per trace/instruction.hh) needs a
        // data-dependent adjustment.
        static constexpr uint16_t classFlags[8] = {
            /* Alu         */ 0,
            /* Load        */ kMemOp | kLoadLike,
            /* Store       */ kMemOp | kStore,
            /* Branch      */ kBranch,
            /* Prefetch    */ kMemOp | kPrefetch | kLoadLike,
            /* Serializing */ kSerializing,
            0, 0,
        };
        const trace::InstClass cls = ck.cls(ci);
        const bool atomic_mem =
            cls == trace::InstClass::Serializing && effAddr != 0;
        entry.flags = classFlags[size_t(cls) & 7];
        if (atomic_mem)
            entry.flags |= kMemOp | kLoadLike;
        entry.dstReg = dstReg;

        // Register renaming: capture the in-flight producer of each
        // source. For stores, src[0]/src[2] compute the address and
        // src[1] is the data; address producers come first so the
        // config-B "wait for earlier store addresses" rule can count
        // them separately.
        Seq prods[maxProds];
        unsigned num_prods = 0;
        auto capture = [&](uint8_t reg) {
            if (reg != trace::noReg && regProducer[reg] != 0)
                prods[num_prods++] = regProducer[reg];
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
        // written by an in-flight store forwards from that store, so
        // the store's execution is one more producer.
        const uint64_t mem_key = effAddr >> 3;
        if (entry.is(kLoadLike) && !entry.is(kPrefetch)) {
            const Seq forward = storeProducer.find(mem_key);
            if (forward != 0)
                prods[num_prods++] = forward;
        }
        if (entry.is(kStore) || atomic_mem) {
            storeProducer.put(mem_key, seq);
            entry.storeKey = mem_key + 1;
        }
        if (dstReg != trace::noReg)
            regProducer[dstReg] = seq;

        // Producer registration: every producer is in flight (retiring
        // releases both maps); each one not yet available gets this
        // entry on its consumer list and bumps the pending counters.
        for (unsigned p = 0; p < num_prods; ++p) {
            Entry &producer = entryRef(prods[p]);
            if (available(producer))
                continue;
            entry.nextConsumer[p] = producer.consumerHead;
            producer.consumerHead = (Link(seq) << 2) | Link(p);
            ++entry.pendingProds;
            if (p < entry.numAddrProds)
                ++entry.pendingAddrProds;
        }

        if (storeOrder && entry.is(kStore) && entry.pendingAddrProds != 0)
            linkUnresolvedStoreTail(entry);
        if (entry.pendingProds == 0)
            pushCandidate(entry);
        return entry;
    }

    /** Retire the oldest entry, releasing its renaming claims. */
    void
    retireOldest()
    {
        const Entry &entry = oldest();
        if (entry.dstReg != trace::noReg &&
            regProducer[entry.dstReg] == entry.seq)
            regProducer[entry.dstReg] = 0;
        if (entry.storeKey != 0)
            storeProducer.eraseMatching(entry.storeKey - 1, entry.seq);
        ++headSeq;
    }

    // --- wakeup ---

    /** @p producer's value is now available: release its consumers. */
    void
    notifyConsumers(Entry &producer)
    {
        Link link = producer.consumerHead;
        producer.consumerHead = 0;
        while (link != 0) {
            Entry &consumer = entryRef(Seq(link >> 2));
            const unsigned slot = link & 3;
            link = consumer.nextConsumer[slot];
            consumer.nextConsumer[slot] = 0;
            --consumer.pendingProds;
            if (slot < consumer.numAddrProds &&
                --consumer.pendingAddrProds == 0 && storeOrder &&
                consumer.is(kStore))
                resolveStore(consumer);
            if (consumer.pendingProds == 0)
                pushCandidate(consumer);
        }
    }

    /** Pool @p entry unless it is already pooled or done. */
    void
    pushCandidate(Entry &entry)
    {
        if (entry.is(kInCand) || entry.is(kDone))
            return;
        entry.flags |= kInCand;
        ready.push(entry.seq);
    }

    bool hasCandidates() const { return !ready.empty(); }

    /** The oldest pooled entry, taken out of the pool. */
    Entry &
    popCandidate()
    {
        Entry &entry = entryRef(ready.pop());
        entry.flags &= ~kInCand;
        return entry;
    }

    /**
     * Config B: whether a store older than @p entry has an unresolved
     * address. If so, @p entry is parked and re-pooled when the oldest
     * such store resolves. Always false under other configs.
     */
    bool
    parkBehindUnresolvedStore(Entry &entry)
    {
        if (usHead == 0 || usHead >= entry.seq)
            return false;
        if (!entry.is(kBlockedStore)) {
            entry.flags |= kBlockedStore;
            blockedOnStore.push_back(entry.seq);
        }
        return true;
    }

    /** Nothing pooled, no unresolved store, nobody parked. */
    bool
    quiet() const
    {
        return ready.empty() && usHead == 0 && blockedOnStore.empty();
    }

  private:
    void
    growRing()
    {
        std::vector<Entry> next(ring.size() * 2);
        const uint32_t new_mask = uint32_t(next.size() - 1);
        for (uint64_t s = headSeq; s < tailSeq; ++s)
            next[size_t(s) & new_mask] = ring[size_t(s) & ringMask];
        ring.swap(next);
        ringMask = new_mask;
    }

    void
    linkUnresolvedStoreTail(Entry &entry)
    {
        entry.usPrev = usTail;
        entry.usNext = 0;
        if (usTail != 0)
            entryRef(usTail).usNext = entry.seq;
        else
            usHead = entry.seq;
        usTail = entry.seq;
    }

    void
    resolveStore(Entry &store)
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
        // Only the oldest unresolved store gates config-B issue, so
        // only its resolution can unblock anyone.
        if (was_head)
            wakeBlockedOnStore();
    }

    void
    wakeBlockedOnStore()
    {
        for (const Seq seq : blockedOnStore) {
            Entry &entry = entryRef(seq);
            if (entry.seq != seq)
                continue; // retired, slot since reused
            entry.flags &= ~kBlockedStore;
            pushCandidate(entry);
        }
        blockedOnStore.clear();
    }

    const bool storeOrder;              //!< config B's store-address rule
    std::vector<Entry> ring;            //!< power-of-two ring, seq & mask
    uint32_t ringMask = 0;
    uint64_t headSeq = 1;               //!< oldest in-flight seq
    uint64_t tailSeq = 1;               //!< next seq to allocate
    std::array<Seq, trace::numArchRegs> regProducer{};
    util::StoreMap storeProducer;       //!< newest in-flight store per key
    util::ReadyPool ready;              //!< ready candidates, oldest first
    Seq usHead = 0;                     //!< unresolved stores (config B)
    Seq usTail = 0;
    std::vector<Seq> blockedOnStore;    //!< config-B entries to re-wake
};

} // namespace mlpsim::core
