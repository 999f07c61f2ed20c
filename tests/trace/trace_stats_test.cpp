/** @file Instruction-mix measurement. */
#include <gtest/gtest.h>

#include <memory>

#include "trace/stream_source.hh"
#include "trace/trace_buffer.hh"
#include "trace/trace_stats.hh"
#include "workloads/micro.hh"

namespace mlpsim::test {

using namespace mlpsim::trace;

TEST(TraceMix, CountsEveryClass)
{
    TraceBuffer buf;
    buf.append(makeAlu(0x100, 1));
    buf.append(makeAlu(0x104, 1));
    buf.append(makeLoad(0x108, 2, 0x1000));
    buf.append(makeStore(0x10c, 0x2000));
    buf.append(makeBranch(0x110, 0x200, true));
    buf.append(makeBranch(0x114, 0x200, false));
    buf.append(makePrefetch(0x118, 0x3000));
    buf.append(makeSerializing(0x11c));

    const TraceMix mix = measureMix(buf, 1000);
    EXPECT_EQ(mix.total, 8u);
    EXPECT_EQ(mix.alu, 2u);
    EXPECT_EQ(mix.loads, 1u);
    EXPECT_EQ(mix.stores, 1u);
    EXPECT_EQ(mix.branches, 2u);
    EXPECT_EQ(mix.takenBranches, 1u);
    EXPECT_EQ(mix.prefetches, 1u);
    EXPECT_EQ(mix.serializing, 1u);
    EXPECT_DOUBLE_EQ(mix.fracLoads(), 1.0 / 8.0);
    EXPECT_DOUBLE_EQ(mix.fracBranches(), 2.0 / 8.0);
}

TEST(TraceMix, RespectsLimitAndRewinds)
{
    TraceBuffer buf;
    for (int i = 0; i < 20; ++i)
        buf.append(makeAlu(0x100 + 4u * unsigned(i), 1));
    buf.append(makeLoad(0x200, 2, 0x1000));
    const TraceMix mix = measureMix(buf, 5);
    EXPECT_EQ(mix.total, 5u);
    EXPECT_EQ(mix.alu, 5u);
    // Each call reads a fresh stream from the first instruction.
    const TraceMix again = measureMix(buf, 21);
    EXPECT_EQ(again.total, 21u);
    EXPECT_EQ(again.alu, 20u);
    EXPECT_EQ(again.loads, 1u);
}

TEST(TraceMix, StopsMidChunkOfAGeneratedSource)
{
    // A generated source streams chunks of 7; the limit falls inside
    // the third, and counting stops there.
    const GeneratedChunkSource source(
        "chase", 100,
        [] { return std::make_unique<workloads::PointerChaseWorkload>(); },
        7);
    TraceBuffer reference;
    workloads::PointerChaseWorkload generator;
    reference.fill(generator, 17);
    const TraceMix mix = measureMix(source, 17);
    const TraceMix expected = measureMix(reference, 100);
    EXPECT_EQ(mix.total, 17u);
    EXPECT_EQ(mix.loads, expected.loads);
    EXPECT_EQ(mix.alu, expected.alu);
}

TEST(TraceMix, EmptyTrace)
{
    TraceBuffer buf;
    const TraceMix mix = measureMix(buf, 10);
    EXPECT_EQ(mix.total, 0u);
    EXPECT_DOUBLE_EQ(mix.fracLoads(), 0.0);
}

} // namespace mlpsim::test
