/** @file Composite branch unit and the trace annotator. */
#include <gtest/gtest.h>

#include "branch/branch_unit.hh"
#include "trace/trace_buffer.hh"

namespace mlpsim::test {

using namespace mlpsim::branch;
using namespace mlpsim::trace;

namespace {

BranchConfig
smallConfig()
{
    BranchConfig cfg;
    cfg.gshareEntries = 4096;
    cfg.historyBits = 8;
    cfg.btbEntries = 256;
    cfg.rasDepth = 8;
    return cfg;
}

/** Feed @p buf's chunks, in order, through a fresh BranchAnnotator. */
BranchAnnotations
annotate(const TraceBuffer &buf, const BranchConfig &cfg,
         uint64_t warmup_insts = 0)
{
    BranchAnnotator pass(cfg, warmup_insts);
    for (size_t ci = 0; ci < buf.numChunks(); ++ci)
        pass.add(buf.chunk(ci));
    return pass.finish();
}

} // namespace

TEST(BranchUnit, LearnsStableConditionalBranch)
{
    BranchUnit unit(smallConfig());
    const auto br = makeBranch(0x400, 0x500, true);
    // First encounters mispredict (BTB cold); later ones should hit.
    for (int i = 0; i < 16; ++i)
        unit.predictAndUpdate(br);
    EXPECT_FALSE(unit.predictAndUpdate(br));
    EXPECT_EQ(unit.branches(), 17u);
}

TEST(BranchUnit, TakenNeedsBtbTarget)
{
    BranchUnit unit(smallConfig());
    // Direction predicted taken (weakly-taken init) but BTB empty:
    // first taken branch mispredicts on target.
    EXPECT_TRUE(unit.predictAndUpdate(makeBranch(0x400, 0x500, true)));
    EXPECT_FALSE(unit.predictAndUpdate(makeBranch(0x400, 0x500, true)));
}

TEST(BranchUnit, TargetChangeMispredicts)
{
    BranchUnit unit(smallConfig());
    unit.predictAndUpdate(makeBranch(0x400, 0x500, true));
    unit.predictAndUpdate(makeBranch(0x400, 0x500, true));
    EXPECT_TRUE(unit.predictAndUpdate(makeBranch(0x400, 0x600, true)));
}

TEST(BranchUnit, CallReturnPairPredictsThroughRas)
{
    BranchUnit unit(smallConfig());
    const auto call =
        makeBranch(0x400, 0x1000, true, noReg, BranchKind::Call);
    const auto ret =
        makeBranch(0x1010, 0x404, true, noReg, BranchKind::Return);
    unit.predictAndUpdate(call); // cold BTB: mispredicts, pushes RAS
    EXPECT_FALSE(unit.predictAndUpdate(ret)); // RAS: 0x400+4 == 0x404
}

TEST(BranchUnit, ReturnWithWrongTargetMispredicts)
{
    BranchUnit unit(smallConfig());
    unit.predictAndUpdate(
        makeBranch(0x400, 0x1000, true, noReg, BranchKind::Call));
    EXPECT_TRUE(unit.predictAndUpdate(
        makeBranch(0x1010, 0x9999, true, noReg, BranchKind::Return)));
}

TEST(BranchUnit, NestedCallsReturnInOrder)
{
    BranchUnit unit(smallConfig());
    unit.predictAndUpdate(
        makeBranch(0x400, 0x1000, true, noReg, BranchKind::Call));
    unit.predictAndUpdate(
        makeBranch(0x1000, 0x2000, true, noReg, BranchKind::Call));
    EXPECT_FALSE(unit.predictAndUpdate(
        makeBranch(0x2010, 0x1004, true, noReg, BranchKind::Return)));
    EXPECT_FALSE(unit.predictAndUpdate(
        makeBranch(0x1010, 0x404, true, noReg, BranchKind::Return)));
}

TEST(BranchUnit, JumpUsesBtb)
{
    BranchUnit unit(smallConfig());
    const auto jump =
        makeBranch(0x400, 0x3000, true, noReg, BranchKind::Jump);
    EXPECT_TRUE(unit.predictAndUpdate(jump));
    EXPECT_FALSE(unit.predictAndUpdate(jump));
}

TEST(BranchUnit, PerfectModeNeverMispredicts)
{
    BranchConfig cfg = smallConfig();
    cfg.perfect = true;
    BranchUnit unit(cfg);
    EXPECT_FALSE(unit.predictAndUpdate(makeBranch(0x400, 0x500, true)));
    EXPECT_FALSE(unit.predictAndUpdate(
        makeBranch(0x404, 0x900, true, noReg, BranchKind::Return)));
    EXPECT_DOUBLE_EQ(unit.mispredictRate(), 0.0);
}

TEST(BranchUnit, ResetClearsState)
{
    BranchUnit unit(smallConfig());
    unit.predictAndUpdate(makeBranch(0x400, 0x500, true));
    unit.reset();
    EXPECT_EQ(unit.branches(), 0u);
    // BTB cleared: taken branch mispredicts on target again.
    EXPECT_TRUE(unit.predictAndUpdate(makeBranch(0x400, 0x500, true)));
}

TEST(AnnotateBranches, FlagsOnlyBranches)
{
    trace::TraceBuffer buf;
    buf.append(makeAlu(0x100, 1));
    buf.append(makeBranch(0x104, 0x200, true));
    buf.append(makeLoad(0x108, 1, 0x1000));
    const auto ann = annotate(buf, smallConfig());
    EXPECT_EQ(ann.branches, 1u);
    EXPECT_FALSE(ann.isMispredict(0));
    EXPECT_FALSE(ann.isMispredict(2));
}

TEST(AnnotateBranches, WarmupTrainsButIsNotCounted)
{
    trace::TraceBuffer buf;
    for (int i = 0; i < 10; ++i)
        buf.append(makeBranch(0x400, 0x500, true));
    const auto ann = annotate(buf, smallConfig(), 5);
    EXPECT_EQ(ann.branches, 5u);
    // The cold mispredictions happened during warm-up.
    EXPECT_EQ(ann.mispredicts, 0u);
    EXPECT_DOUBLE_EQ(ann.mispredictRate(), 0.0);
}

TEST(AnnotateBranches, PerfectModeFlagsNothing)
{
    trace::TraceBuffer buf;
    for (int i = 0; i < 10; ++i)
        buf.append(makeBranch(0x400 + 32u * unsigned(i), 0x9000, true));
    BranchConfig cfg = smallConfig();
    cfg.perfect = true;
    const auto ann = annotate(buf, cfg);
    EXPECT_EQ(ann.mispredicts, 0u);
}

} // namespace mlpsim::test
