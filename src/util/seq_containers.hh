/**
 * @file
 * Sequence-number containers for the simulators.
 *
 * The epoch engine (DESIGN.md section 12) tracks in-flight
 * instructions by a 32-bit sequence number (trace index + 1, 0 =
 * null). Its dependence state, core/dataflow_window.hh, keeps the
 * newest in-flight store per address key in a StoreMap and its ready
 * candidates in a ReadyPool, and the engine keeps SeqFifos for its
 * Table 2 in-order issue rules (config-A memory ops, in-order branches).
 * All three serve only the epoch engine: the cycle-accurate pipeline's
 * program-order pass (section 14) has no in-flight window to track.
 * None of them knows about entries or timing.
 */
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace mlpsim::util {

/** Sequence number: trace index + 1; 0 is the null link. */
using Seq = uint32_t;

/**
 * In-order queue of sequence numbers (config-A memory ops, in-order
 * branches). A power-of-two ring over a vector; push grows by
 * doubling, so a reset() capacity is a hint, not a limit.
 */
class SeqFifo
{
  public:
    void
    reset(size_t min_capacity)
    {
        buf.assign(std::bit_ceil(std::max<size_t>(min_capacity, 16)), 0);
        head = tail = 0;
    }

    bool empty() const { return head == tail; }
    Seq front() const { return buf[head & (buf.size() - 1)]; }
    void pop() { ++head; }

    void
    push(Seq s)
    {
        if (tail - head == buf.size()) {
            std::vector<Seq> next(buf.size() * 2);
            for (uint32_t i = head; i != tail; ++i)
                next[i & (next.size() - 1)] = buf[i & (buf.size() - 1)];
            buf.swap(next);
        }
        buf[tail & (buf.size() - 1)] = s;
        ++tail;
    }

  private:
    std::vector<Seq> buf;
    uint32_t head = 0;
    uint32_t tail = 0;
};

/**
 * Ready-candidate pool, popped in ascending seq order. Nearly all
 * pushes arrive already ascending (dispatch allocates seqs in order,
 * and in-drain wakeups almost always target younger instructions), so
 * those append O(1) to an ascending run consumed by cursor; the rare
 * out-of-order push goes to an overflow min-heap, and pop takes the
 * smaller of the two lane heads. The caller guarantees that a seq is
 * pooled at most once at a time (the engines keep a kInCand flag).
 */
class ReadyPool
{
  public:
    void
    reserve(size_t run_capacity, size_t heap_capacity)
    {
        run.reserve(run_capacity);
        heap.reserve(heap_capacity);
    }

    bool empty() const { return cursor == run.size() && heap.empty(); }

    void
    push(Seq seq)
    {
        if (run.empty() || seq > run.back()) {
            run.push_back(seq);
        } else {
            heap.push_back(seq);
            std::push_heap(heap.begin(), heap.end(), std::greater<>());
        }
    }

    /** Smallest pooled seq; the pool must not be empty. */
    Seq
    pop()
    {
        // The run past its cursor is ascending and each seq is pooled
        // at most once, so the global minimum is the smaller of the
        // two lane heads.
        const bool run_has = cursor != run.size();
        if (!heap.empty() && (!run_has || heap.front() < run[cursor])) {
            std::pop_heap(heap.begin(), heap.end(), std::greater<>());
            const Seq seq = heap.back();
            heap.pop_back();
            return seq;
        }
        const Seq seq = run[cursor++];
        if (cursor == run.size()) {
            run.clear();
            cursor = 0;
        }
        return seq;
    }

  private:
    std::vector<Seq> run;   //!< ascending, consumed from cursor
    size_t cursor = 0;
    std::vector<Seq> heap;  //!< out-of-order overflow min-heap
};

/**
 * Open-addressing map from store line key to the seq of the newest
 * in-flight store to that line (replaces std::unordered_map on the
 * dispatch/retire hot path). Linear probing with backward-shift
 * deletion; a slot with seq 0 is empty.
 */
class StoreMap
{
  public:
    void
    reset(size_t min_capacity)
    {
        const size_t cap = std::bit_ceil(std::max<size_t>(min_capacity, 64));
        slots.assign(cap, Slot{});
        mask = cap - 1;
        live = 0;
    }

    /** Seq of the newest in-flight store to @p key (0 if none). */
    Seq
    find(uint64_t key) const
    {
        for (size_t i = probe(key); occupied(slots[i]);
             i = (i + 1) & mask) {
            if (slots[i].key == key)
                return slots[i].seq;
        }
        return 0;
    }

    /** Insert, or overwrite the previous store to the same key. */
    void
    put(uint64_t key, Seq seq)
    {
        // Keep the load factor under 1/2 so probe chains stay short and
        // the scans below always hit an empty slot.
        if ((live + 1) * 2 > slots.size())
            grow();
        size_t i = probe(key);
        while (occupied(slots[i])) {
            if (slots[i].key == key) {
                slots[i].seq = seq;
                return;
            }
            i = (i + 1) & mask;
        }
        slots[i] = Slot{key, seq};
        ++live;
    }

    /** Erase @p key only if it still maps to @p seq. */
    void
    eraseMatching(uint64_t key, Seq seq)
    {
        size_t i = probe(key);
        while (occupied(slots[i])) {
            if (slots[i].key == key) {
                if (slots[i].seq != seq)
                    return;
                // Backward-shift deletion: pull every displaced entry
                // of the probe chain one hole closer to its home slot,
                // so a later find() never stops early at the hole.
                size_t hole = i;
                size_t j = i;
                while (true) {
                    j = (j + 1) & mask;
                    if (!occupied(slots[j]))
                        break;
                    const size_t home = probe(slots[j].key);
                    if (((j - home) & mask) >= ((j - hole) & mask)) {
                        slots[hole] = slots[j];
                        hole = j;
                    }
                }
                slots[hole] = Slot{};
                --live;
                return;
            }
            i = (i + 1) & mask;
        }
    }

  private:
    struct Slot
    {
        uint64_t key = 0;
        Seq seq = 0;   //!< 0 = empty
    };

    static bool occupied(const Slot &s) { return s.seq != 0; }

    size_t probe(uint64_t key) const
    {
        // Multiply-shift (Fibonacci) hash; low bits after the mix.
        return size_t(key * 0x9E3779B97F4A7C15ull >> 32) & mask;
    }

    void
    grow()
    {
        std::vector<Slot> old;
        old.swap(slots);
        slots.assign(std::max<size_t>(old.size() * 2, 64), Slot{});
        mask = slots.size() - 1;
        live = 0;
        for (const Slot &s : old) {
            if (occupied(s))
                put(s.key, s.seq);
        }
    }

    std::vector<Slot> slots;
    size_t mask = 0;
    size_t live = 0;
};

} // namespace mlpsim::util
