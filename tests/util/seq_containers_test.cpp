/** @file StoreMap, SeqFifo and ReadyPool driven directly, without an
 *  engine around them. */
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "util/seq_containers.hh"

namespace mlpsim::test {

using util::ReadyPool;
using util::Seq;
using util::SeqFifo;
using util::StoreMap;

namespace {

/** StoreMap's home slot for @p key in a table of 2^k slots (@p mask =
 *  2^k - 1): the same multiply-shift hash, so a test can build probe
 *  chains on purpose. */
size_t
homeSlot(uint64_t key, size_t mask)
{
    return size_t(key * 0x9E3779B97F4A7C15ull >> 32) & mask;
}

/** The first @p n keys (from 1 up) whose home slot is @p slot. */
std::vector<uint64_t>
keysHomedAt(size_t slot, size_t mask, size_t n)
{
    std::vector<uint64_t> keys;
    for (uint64_t key = 1; keys.size() < n; ++key) {
        if (homeSlot(key, mask) == slot)
            keys.push_back(key);
    }
    return keys;
}

} // namespace

TEST(StoreMap, EmptyMapFindsNothing)
{
    StoreMap map;
    map.reset(64);
    EXPECT_EQ(map.find(0), 0u);
    EXPECT_EQ(map.find(12345), 0u);
}

TEST(StoreMap, BackwardShiftInsideAWrappedProbeChain)
{
    // reset(64) gives 64 slots. Three keys homed at the last slot fill
    // slots 63, 0 and 1 (the chain wraps); a key homed at slot 0 is
    // displaced to slot 2. Erasing the chain's head must pull every
    // later member back across the wrap, or a find() would stop at
    // the hole.
    constexpr size_t mask = 63;
    const auto last = keysHomedAt(mask, mask, 3);
    const auto first = keysHomedAt(0, mask, 1);
    StoreMap map;
    map.reset(64);
    map.put(last[0], 1);
    map.put(last[1], 2);
    map.put(last[2], 3);
    map.put(first[0], 4);

    map.eraseMatching(last[0], 1);
    EXPECT_EQ(map.find(last[0]), 0u);
    EXPECT_EQ(map.find(last[1]), 2u);
    EXPECT_EQ(map.find(last[2]), 3u);
    EXPECT_EQ(map.find(first[0]), 4u);

    // Erasing from the middle of what is left, across the wrap again.
    map.eraseMatching(last[2], 3);
    EXPECT_EQ(map.find(last[1]), 2u);
    EXPECT_EQ(map.find(last[2]), 0u);
    EXPECT_EQ(map.find(first[0]), 4u);

    map.eraseMatching(last[1], 2);
    map.eraseMatching(first[0], 4);
    for (uint64_t key : {last[0], last[1], last[2], first[0]})
        EXPECT_EQ(map.find(key), 0u) << key;
}

TEST(StoreMap, EraseMatchingANewerSeqIsANoOp)
{
    // A retiring store only erases its key if no younger store to the
    // same key has replaced it.
    StoreMap map;
    map.reset(64);
    map.put(7, 5);
    map.eraseMatching(7, 3);
    EXPECT_EQ(map.find(7), 5u);
    map.eraseMatching(8, 5); // other key, same seq
    EXPECT_EQ(map.find(7), 5u);
    map.eraseMatching(7, 5);
    EXPECT_EQ(map.find(7), 0u);
}

TEST(StoreMap, PutOverwritesTheSameKey)
{
    StoreMap map;
    map.reset(64);
    map.put(42, 1);
    map.put(42, 2);
    EXPECT_EQ(map.find(42), 2u);
    map.eraseMatching(42, 1); // the overwritten store retiring
    EXPECT_EQ(map.find(42), 2u);
    // One slot held both: erasing the newer leaves nothing behind.
    map.eraseMatching(42, 2);
    EXPECT_EQ(map.find(42), 0u);
}

TEST(StoreMap, GrowthKeepsEveryLiveEntry)
{
    // Start at the minimum size and put far more keys than fit under
    // the 1/2 load factor, erasing every third one along the way, so
    // the table doubles several times with holes and chains in it.
    StoreMap map;
    map.reset(1);
    constexpr uint64_t n = 3000;
    for (uint64_t k = 0; k < n; ++k) {
        map.put(k * 8, Seq(k + 1));
        if (k % 3 == 2)
            map.eraseMatching((k - 1) * 8, Seq(k));
    }
    for (uint64_t k = 0; k < n; ++k) {
        const bool erased = k % 3 == 1;
        EXPECT_EQ(map.find(k * 8), erased ? 0u : Seq(k + 1)) << k;
    }
}

TEST(StoreMap, MatchesAReferenceMapUnderRandomChurn)
{
    // A small key space forces collisions, overwrites and long probe
    // chains; every operation is mirrored in std::unordered_map.
    std::mt19937_64 rng(17);
    StoreMap map;
    map.reset(64);
    std::unordered_map<uint64_t, Seq> ref;
    Seq next = 1;
    for (int op = 0; op < 20000; ++op) {
        const uint64_t key = rng() % 97;
        if (rng() % 3 != 0) {
            map.put(key, next);
            ref[key] = next;
            ++next;
        } else {
            // Retire either the current owner or a stale older seq.
            auto it = ref.find(key);
            const Seq seq = (it != ref.end() && rng() % 2 == 0)
                                ? it->second
                                : Seq(1 + rng() % next);
            map.eraseMatching(key, seq);
            if (it != ref.end() && it->second == seq)
                ref.erase(it);
        }
        const uint64_t probe = rng() % 97;
        const auto it = ref.find(probe);
        ASSERT_EQ(map.find(probe), it == ref.end() ? 0u : it->second)
            << "op " << op << " key " << probe;
    }
}

TEST(SeqFifo, GrowsWhileItsHeadIsWrapped)
{
    SeqFifo fifo;
    fifo.reset(16);
    // Move the head to slot 10, then fill all 16 slots so the live
    // range wraps past the end of the buffer.
    for (Seq s = 1; s <= 10; ++s)
        fifo.push(s);
    for (Seq s = 1; s <= 10; ++s) {
        ASSERT_EQ(fifo.front(), s);
        fifo.pop();
    }
    EXPECT_TRUE(fifo.empty());
    for (Seq s = 100; s < 116; ++s)
        fifo.push(s);
    // Full and wrapped: this push doubles the buffer.
    fifo.push(116);
    fifo.push(117);
    for (Seq s = 100; s <= 117; ++s) {
        ASSERT_FALSE(fifo.empty());
        EXPECT_EQ(fifo.front(), s);
        fifo.pop();
    }
    EXPECT_TRUE(fifo.empty());
}

TEST(ReadyPool, PopsInAscendingOrderAfterOutOfOrderPushes)
{
    ReadyPool pool;
    pool.reserve(4, 4);
    EXPECT_TRUE(pool.empty());
    // 3, 7 and 1 arrive below the run's tail and go to the heap.
    for (Seq s : {5u, 9u, 3u, 7u, 12u, 1u})
        pool.push(s);
    EXPECT_EQ(pool.pop(), 1u);
    EXPECT_EQ(pool.pop(), 3u);
    // Pushes between pops: below the cursor, between lanes, above.
    pool.push(2);
    pool.push(20);
    pool.push(8);
    const std::vector<Seq> want = {2, 5, 7, 8, 9, 12, 20};
    for (Seq s : want) {
        ASSERT_FALSE(pool.empty());
        EXPECT_EQ(pool.pop(), s);
    }
    EXPECT_TRUE(pool.empty());

    // Drained, the run starts over: ascending pushes stay in order.
    pool.push(30);
    pool.push(31);
    pool.push(4);
    EXPECT_EQ(pool.pop(), 4u);
    EXPECT_EQ(pool.pop(), 30u);
    EXPECT_EQ(pool.pop(), 31u);
    EXPECT_TRUE(pool.empty());
}

} // namespace mlpsim::test
