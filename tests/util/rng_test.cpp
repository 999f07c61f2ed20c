/** @file Deterministic RNG behaviour, distribution sanity and the
 *  FNV-1a string hash. */
#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hh"

namespace mlpsim::test {

TEST(SplitMix64, IsDeterministic)
{
    EXPECT_EQ(splitMix64(0), splitMix64(0));
    EXPECT_EQ(splitMix64(42), splitMix64(42));
    EXPECT_NE(splitMix64(0), splitMix64(1));
}

TEST(SplitMix64, MixesNearbyInputs)
{
    int total_flips = 0;
    for (uint64_t i = 0; i < 64; ++i)
        total_flips += __builtin_popcountll(splitMix64(i) ^
                                            splitMix64(i + 1));
    EXPECT_GT(total_flips / 64, 20);
}

TEST(Fnv1a64Test, MatchesKnownVectors)
{
    // Standard FNV-1a test vectors.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a64Test, DistinctLabelsHashDifferently)
{
    EXPECT_NE(fnv1a64("mlp cpmail/64C"), fnv1a64("mlp cpmail/64E"));
    EXPECT_NE(fnv1a64("job"), fnv1a64("job2"));
}

TEST(Rng, SameSeedSameStream)
{
    Rng a(7), b(7);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDifferentStreams)
{
    Rng a(7), b(8);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += (a() == b());
    EXPECT_LT(equal, 2);
}

TEST(Rng, ReseedRestartsStream)
{
    Rng a(123);
    std::vector<uint64_t> first;
    for (int i = 0; i < 16; ++i)
        first.push_back(a());
    a.reseed(123);
    for (int i = 0; i < 16; ++i)
        ASSERT_EQ(a(), first[size_t(i)]);
}

TEST(Rng, BelowStaysInBounds)
{
    Rng r(1);
    for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            ASSERT_LT(r.below(bound), bound);
    }
}

TEST(Rng, BelowCoversRange)
{
    Rng r(2);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 4000; ++i)
        ++seen[r.below(8)];
    for (int count : seen)
        EXPECT_GT(count, 300);
}

TEST(Rng, RangeInclusive)
{
    Rng r(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const uint64_t v = r.range(5, 8);
        ASSERT_GE(v, 5u);
        ASSERT_LE(v, 8u);
        saw_lo |= v == 5;
        saw_hi |= v == 8;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIsInUnitInterval)
{
    Rng r(4);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng r(6);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, GeometricIsPositiveWithRoughMean)
{
    Rng r(7);
    double sum = 0;
    for (int i = 0; i < 5000; ++i) {
        const uint64_t v = r.geometric(8.0);
        ASSERT_GE(v, 1u);
        sum += double(v);
    }
    EXPECT_NEAR(sum / 5000, 8.0, 1.2);
}

TEST(Rng, GeometricDegenerateMean)
{
    Rng r(8);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.geometric(0.5), 1u);
}

class ZipfSkewTest : public ::testing::TestWithParam<double>
{
};

TEST_P(ZipfSkewTest, StaysInRangeAndIsHeadHeavy)
{
    const double s = GetParam();
    Rng r(uint64_t(s * 1000));
    constexpr uint64_t n = 1000;
    uint64_t head = 0;
    for (int i = 0; i < 20000; ++i) {
        const uint64_t v = r.zipf(n, s);
        ASSERT_LT(v, n);
        head += (v < n / 10);
    }
    // Skewed draws put far more than 10% of the mass in the first
    // decile.
    EXPECT_GT(head, 20000u / 10 + 2000);
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfSkewTest,
                         ::testing::Values(0.6, 0.8, 1.0, 1.2, 1.5));

TEST(Rng, ZipfMoreSkewMoreHead)
{
    Rng a(10), b(10);
    constexpr uint64_t n = 4096;
    uint64_t head_low = 0, head_high = 0;
    for (int i = 0; i < 20000; ++i) {
        head_low += (a.zipf(n, 0.6) < 32);
        head_high += (b.zipf(n, 1.4) < 32);
    }
    EXPECT_GT(head_high, head_low);
}

} // namespace mlpsim::test
