/**
 * @file
 * Test support: two annotations of one trace compared plane by plane
 * and counter by counter, for the tests that build the same trace two
 * ways (streamed and materialised, overlapped and two-pass).
 */
#pragma once

#include <gtest/gtest.h>

#include "core/mlpsim.hh"

namespace mlpsim::test {

inline void
expectSameAnnotations(const core::AnnotatedTrace &actual,
                      const core::AnnotatedTrace &reference)
{
    EXPECT_EQ(actual.instructions(), reference.instructions());

    const auto &am = actual.misses();
    const auto &rm = reference.misses();
    EXPECT_EQ(am.measuredInsts, rm.measuredInsts);
    EXPECT_EQ(am.fetchMisses, rm.fetchMisses);
    EXPECT_EQ(am.loadMisses, rm.loadMisses);
    EXPECT_EQ(am.storeMisses, rm.storeMisses);
    EXPECT_EQ(am.usefulPrefetches, rm.usefulPrefetches);
    EXPECT_EQ(am.uselessPrefetches, rm.uselessPrefetches);
    ASSERT_EQ(am.size(), rm.size());

    const auto &ab = actual.branches();
    const auto &rb = reference.branches();
    EXPECT_EQ(ab.branches, rb.branches);
    EXPECT_EQ(ab.mispredicts, rb.mispredicts);

    const auto &av = actual.values();
    const auto &rv = reference.values();
    EXPECT_EQ(av.missingLoads, rv.missingLoads);
    EXPECT_EQ(av.correct, rv.correct);
    EXPECT_EQ(av.wrong, rv.wrong);
    EXPECT_EQ(av.noPredict, rv.noPredict);
    ASSERT_EQ(av.outcome.size(), rv.outcome.size());

    // Every per-instruction plane, bit for bit.
    for (size_t i = 0; i < rm.size(); ++i) {
        ASSERT_EQ(am.fetchMiss(i), rm.fetchMiss(i)) << "at " << i;
        ASSERT_EQ(am.dataMiss(i), rm.dataMiss(i)) << "at " << i;
        ASSERT_EQ(am.usefulPrefetch(i), rm.usefulPrefetch(i)) << "at " << i;
        ASSERT_EQ(am.dataL2Hit(i), rm.dataL2Hit(i)) << "at " << i;
        ASSERT_EQ(am.storeMiss(i), rm.storeMiss(i)) << "at " << i;
        ASSERT_EQ(ab.isMispredict(i), rb.isMispredict(i)) << "at " << i;
    }
    for (size_t i = 0; i < rv.outcome.size(); ++i)
        ASSERT_EQ(av.outcome[i], rv.outcome[i]) << "at " << i;
}

} // namespace mlpsim::test
