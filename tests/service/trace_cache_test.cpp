/**
 * @file
 * TraceCache tests: the daemon's in-memory LRU of prepared traces.
 * Covers eviction order at capacity, the hit and build counters, the
 * non-counting contains() probe, the capacity floor, a failed build
 * caching nothing, and streamed specs.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/trace_pipeline.hh"
#include "service/trace_cache.hh"

namespace mlpsim::service {
namespace {

/** A small trace of @p workload at @p seed (warm-up included). */
core::TraceSpec
spec(uint64_t seed, const std::string &workload = "database",
     uint32_t stream_chunk = 0)
{
    core::TraceSpec s;
    s.workload = workload;
    s.seed = seed;
    s.totalInsts = 2000;
    s.streamChunk = stream_chunk;
    s.annotation.warmupInsts = 200;
    return s;
}

const core::PreparedTrace *
get(TraceCache &cache, const core::TraceSpec &s)
{
    auto got = cache.get(s);
    EXPECT_TRUE(got.ok()) << got.status().toString();
    return got.ok() ? got->get() : nullptr;
}

void
expectStats(const TraceCache &cache, uint64_t hits, uint64_t builds)
{
    const TraceCache::Stats st = cache.stats();
    EXPECT_EQ(st.memoryHits, hits);
    EXPECT_EQ(st.builds, builds);
    EXPECT_EQ(st.diskHits, 0u);
}

TEST(TraceCacheTest, EvictsLeastRecentlyUsedAtCapacity)
{
    TraceCache cache(2);
    const core::PreparedTrace *a = get(cache, spec(1));
    get(cache, spec(2));
    expectStats(cache, 0, 2);

    // Touching A makes B the least recently used.
    EXPECT_EQ(get(cache, spec(1)), a);
    expectStats(cache, 1, 2);

    get(cache, spec(3)); // evicts B
    expectStats(cache, 1, 3);
    EXPECT_EQ(get(cache, spec(1)), a);
    expectStats(cache, 2, 3);

    get(cache, spec(2));
    expectStats(cache, 2, 4); // B was rebuilt
}

TEST(TraceCacheTest, ContainsProbesWithoutCountingOrTouching)
{
    // The daemon asks contains() before a lookup to learn whether a
    // build is coming; the probe must not count as a hit or bump A.
    TraceCache cache(2);
    EXPECT_FALSE(cache.contains(spec(1)));
    get(cache, spec(1));
    get(cache, spec(2));
    EXPECT_TRUE(cache.contains(spec(1)));
    EXPECT_TRUE(cache.contains(spec(2)));
    expectStats(cache, 0, 2);

    get(cache, spec(3)); // evicts A: the probe left it least recent
    EXPECT_FALSE(cache.contains(spec(1)));
    EXPECT_NE(get(cache, spec(1)), nullptr);
    expectStats(cache, 0, 4);
}

TEST(TraceCacheTest, HitsReturnTheSharedTraceAndCountOnce)
{
    TraceCache cache;
    auto first = cache.get(spec(7));
    ASSERT_TRUE(first.ok()) << first.status().toString();
    for (int i = 0; i < 3; ++i) {
        auto again = cache.get(spec(7));
        ASSERT_TRUE(again.ok());
        EXPECT_EQ(again->get(), first->get());
    }
    expectStats(cache, 3, 1);
    EXPECT_EQ((*first)->name(), "database");
    EXPECT_EQ((*first)->warmupInsts(), 200u);
    EXPECT_EQ((*first)->context().size(), 2000u);

    // Every part of the key matters: another seed, warm-up or budget
    // is another trace.
    core::TraceSpec warmup = spec(7);
    warmup.annotation.warmupInsts = 300;
    core::TraceSpec budget = spec(7);
    budget.totalInsts = 3000;
    EXPECT_NE(get(cache, spec(8)), first->get());
    EXPECT_NE(get(cache, warmup), first->get());
    EXPECT_NE(get(cache, budget), first->get());
    expectStats(cache, 3, 4);
}

TEST(TraceCacheTest, ZeroCapacityIsClampedToOne)
{
    TraceCache cache(0);
    const core::PreparedTrace *a = get(cache, spec(1));
    EXPECT_EQ(get(cache, spec(1)), a); // kept: capacity is 1, not 0
    expectStats(cache, 1, 1);

    get(cache, spec(2)); // evicts A
    get(cache, spec(1));
    expectStats(cache, 1, 3);
}

TEST(TraceCacheTest, UnknownWorkloadIsNotFoundAndCachesNothing)
{
    TraceCache cache;
    for (int i = 0; i < 2; ++i) {
        auto got = cache.get(spec(1, "no-such-workload"));
        ASSERT_FALSE(got.ok());
        EXPECT_EQ(got.status().code(), ErrorCode::NotFound);
    }
    expectStats(cache, 0, 0);
}

TEST(TraceCacheTest, StreamedSpecIsCachedLikeAMaterialisedOne)
{
    TraceCache cache;
    const core::PreparedTrace *streamed =
        get(cache, spec(1, "database", 512));
    ASSERT_NE(streamed, nullptr);
    EXPECT_EQ(streamed->buffer(), nullptr);
    EXPECT_EQ(get(cache, spec(1, "database", 512)), streamed);
    expectStats(cache, 1, 1);
}

} // namespace
} // namespace mlpsim::service
