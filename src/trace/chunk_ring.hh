/**
 * @file
 * Bounded single-producer / multi-consumer broadcast ring of trace
 * chunks.
 *
 * The hand-off point of the streaming pipeline: a generator thread
 * push()es immutable chunks, consumer threads pop() them through
 * per-consumer cursors — every live consumer sees every chunk, in
 * order. The ring is bounded by the *slowest live consumer*: the
 * producer blocks once it is `capacity` chunks ahead of it, which is
 * the backpressure that keeps a fused generate-while-simulate run at a
 * constant, small footprint no matter how long the trace is, and — in
 * fan-out mode — what lets one generation feed many engines without
 * ever materialising the trace.
 *
 * Slot release is tied to the slowest consumer's progress: a pop()
 * that moves the minimum cursor forward drops the now-dead front
 * chunks and wakes the producer; pops anywhere else in the pack touch
 * neither the front nor the producer. (An earlier revision notified
 * the producer on *every* pop, which on a 1-CPU box degenerated into
 * a wake/recheck/sleep spin whenever one consumer lagged — the
 * producer woke once per chunk consumed anywhere, found the front
 * still pinned, and went back to sleep.) The producer itself briefly
 * spins on an atomic release counter before committing to a condvar
 * sleep, so the common fast-consumer case never pays a futex round
 * trip.
 *
 * Lifecycle: register every consumer with addConsumer() before
 * producing, push() until done, then close(). A consumer that stops
 * early calls detach(); when no live consumers remain, push() returns
 * false and the producer abandons the stream (this is how a cancelled
 * or destroyed simulation tears the producer thread down without a
 * cancellation token crossing threads).
 *
 * Chunks are shared_ptr<const TraceChunk>: publication happens-before
 * consumption via the ring mutex, and the immutable payload may then
 * be read lock-free by any number of consumers.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "trace/trace_chunk.hh"
#include "util/logging.hh"

namespace mlpsim::trace {

class ChunkRing
{
  public:
    explicit ChunkRing(size_t capacity_chunks)
        : capacity(capacity_chunks ? capacity_chunks : 1)
    {
    }

    /** Register a consumer; returns its id. Call before producing. */
    int
    addConsumer()
    {
        std::lock_guard<std::mutex> lock(mutex);
        // New consumers start at the oldest chunk still buffered.
        cursors.push_back(tail);
        live.push_back(true);
        return int(cursors.size()) - 1;
    }

    /**
     * Publish one chunk. Blocks while the slowest live consumer is
     * `capacity` chunks behind. Returns false once no live consumers
     * remain (the producer should stop).
     */
    bool
    push(ChunkPtr chunk)
    {
        std::unique_lock<std::mutex> lock(mutex);
        if (head - tail >= capacity && anyLive()) {
            // Bounded spin before sleeping: when consumers are keeping
            // up, the front slot frees within the time a futex
            // sleep/wake round trip would cost. releasedSeq is bumped
            // on every front release, so the spin needs no lock. The
            // yields give a same-core consumer (the 1-CPU container
            // case) a chance to actually run.
            const uint64_t target = head;
            lock.unlock();
            for (int spin = 0; spin < producerSpinIters; ++spin) {
                if (releasedSeq.load(std::memory_order_relaxed) + capacity >
                    target) {
                    break;
                }
                if ((spin & 15) == 15)
                    std::this_thread::yield();
            }
            lock.lock();
        }
        while (head - tail >= capacity) {
            if (!anyLive())
                return false;
            producerWaiting = true;
            producerCv.wait(lock);
        }
        if (!anyLive())
            return false;
        ring.push_back(std::move(chunk));
        ++head;
        consumerCv.notify_all();
        return true;
    }

    /** Producer is done; consumers drain and then see nullptr. */
    void
    close()
    {
        std::lock_guard<std::mutex> lock(mutex);
        closed = true;
        consumerCv.notify_all();
    }

    /**
     * Next chunk for @p consumer; blocks until one is available.
     * Returns nullptr when the ring is closed and drained.
     */
    ChunkPtr
    pop(int consumer)
    {
        std::unique_lock<std::mutex> lock(mutex);
        const size_t c = size_t(consumer);
        for (;;) {
            if (cursors[c] < head) {
                ChunkPtr chunk = ring[size_t(cursors[c] - tail)];
                const bool was_slowest = cursors[c] == tail;
                ++cursors[c];
                // Only a pop at the pack's tail can free the front
                // slot; pops anywhere else leave both the window and
                // the producer alone.
                if (was_slowest)
                    releaseFront();
                return chunk;
            }
            if (closed)
                return nullptr;
            consumerCv.wait(lock);
        }
    }

    /** Consumer gives up its cursor (stops constraining the producer). */
    void
    detach(int consumer)
    {
        std::lock_guard<std::mutex> lock(mutex);
        const size_t c = size_t(consumer);
        if (!live[c])
            return;
        live[c] = false;
        if (cursors[c] == tail || !anyLive())
            releaseFront();
    }

  private:
    /**
     * Drop front chunks every live consumer has passed and wake the
     * producer if that freed a slot (or ended the last consumer).
     * Lock held. O(consumers) — fan-outs register a handful.
     */
    void
    releaseFront()
    {
        uint64_t min_cursor = head;
        bool any_live = false;
        for (size_t c = 0; c < cursors.size(); ++c) {
            if (!live[c])
                continue;
            any_live = true;
            if (cursors[c] < min_cursor)
                min_cursor = cursors[c];
        }
        const uint64_t release_to = any_live ? min_cursor : head;
        if (release_to == tail && any_live)
            return; // front still pinned: nothing freed, nobody to wake
        while (tail < release_to && !ring.empty()) {
            ring.pop_front();
            ++tail;
        }
        releasedSeq.store(tail, std::memory_order_relaxed);
        if (producerWaiting || !any_live) {
            producerWaiting = false;
            producerCv.notify_one();
        }
    }

    bool
    anyLive() const
    {
        for (const bool l : live)
            if (l)
                return true;
        return false;
    }

    static constexpr int producerSpinIters = 256;

    const size_t capacity;
    mutable std::mutex mutex;
    std::condition_variable producerCv;
    std::condition_variable consumerCv;
    std::deque<ChunkPtr> ring; //!< chunks [tail, head)
    uint64_t head = 0;         //!< sequence number of the next push
    uint64_t tail = 0;         //!< sequence number of the front chunk
    std::atomic<uint64_t> releasedSeq{0}; //!< tail mirror for the spin
    std::vector<uint64_t> cursors;
    std::vector<bool> live;
    bool producerWaiting = false;
    bool closed = false;
};

} // namespace mlpsim::trace
