/** @file TraceBuffer and Cursor semantics. */
#include <gtest/gtest.h>

#include "trace/trace_buffer.hh"
#include "workloads/micro.hh"

namespace mlpsim::test {

using namespace mlpsim::trace;

TEST(TraceBuffer, AppendAndAccess)
{
    TraceBuffer buf("t");
    buf.append(makeAlu(0x100, 1));
    buf.append(makeAlu(0x104, 2));
    EXPECT_EQ(buf.size(), 2u);
    EXPECT_EQ(buf.at(0).pc, 0x100u);
    EXPECT_EQ(buf.at(1).dst, 2);
    EXPECT_EQ(buf.name(), "t");
}

TEST(TraceBuffer, FillFromGenerator)
{
    workloads::PointerChaseWorkload w;
    TraceBuffer buf("chase");
    buf.fill(w, 1000);
    EXPECT_EQ(buf.size(), 1000u);
}

TEST(TraceBuffer, CursorStreamsAndResets)
{
    TraceBuffer buf;
    for (int i = 0; i < 5; ++i)
        buf.append(makeAlu(0x100 + 4u * unsigned(i), uint8_t(i)));
    auto cur = buf.cursor();
    Instruction inst;
    int n = 0;
    while (cur.next(inst))
        EXPECT_EQ(inst.dst, n++);
    EXPECT_EQ(n, 5);
    EXPECT_FALSE(cur.next(inst));
    cur.reset();
    EXPECT_TRUE(cur.next(inst));
    EXPECT_EQ(inst.dst, 0);
}

TEST(TraceBuffer, FillStopsAtSourceEnd)
{
    TraceBuffer small;
    small.append(makeAlu(0x100, 1));
    auto cur = small.cursor();
    TraceBuffer target;
    target.fill(cur, 100);
    EXPECT_EQ(target.size(), 1u);
}

} // namespace mlpsim::test
