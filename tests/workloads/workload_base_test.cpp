/** @file The workload-authoring framework: PC layout, call/return
 *  consistency, loops, mixed hot work, and batch emission into chunk
 *  columns. */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "trace/trace_chunk.hh"
#include "workloads/factory.hh"
#include "workloads/micro.hh"
#include "workloads/workload_base.hh"

namespace mlpsim::test {

using namespace mlpsim::workloads;
using trace::BranchKind;
using trace::Instruction;
using trace::InstClass;

namespace {

/** A scriptable workload for exercising the base-class helpers. */
class Probe : public WorkloadBase
{
  public:
    using Body = std::function<void(Probe &)>;

    explicit Probe(Body body)
        : WorkloadBase("probe", 42), bodyFn(std::move(body))
    {
    }

    // surface the protected helpers
    using WorkloadBase::callFunction;
    using WorkloadBase::currentPc;
    using WorkloadBase::emitAlu;
    using WorkloadBase::emitCompute;
    using WorkloadBase::emitCondBranch;
    using WorkloadBase::emitHotWork;
    using WorkloadBase::emitLoad;
    using WorkloadBase::loopBack;
    using WorkloadBase::random;
    using WorkloadBase::loopHead;
    using WorkloadBase::returnFromFunction;

  protected:
    void generate() override { bodyFn(*this); }

  private:
    Body bodyFn;
};

std::vector<Instruction>
drain(Probe &p, size_t n)
{
    std::vector<Instruction> out;
    Instruction inst;
    while (out.size() < n && p.next(inst))
        out.push_back(inst);
    return out;
}

} // namespace

TEST(WorkloadBase, CallEmitsCallBranchToFunctionBase)
{
    Probe p([](Probe &w) {
        w.callFunction(7);
        w.emitAlu(1);
        w.returnFromFunction();
    });
    const auto insts = drain(p, 3);
    ASSERT_EQ(insts.size(), 3u);
    EXPECT_EQ(insts[0].brKind(), BranchKind::Call);
    EXPECT_TRUE(insts[0].taken());
    // The callee body starts at the call target.
    EXPECT_EQ(insts[1].pc, insts[0].target());
    EXPECT_EQ(insts[2].brKind(), BranchKind::Return);
}

TEST(WorkloadBase, ReturnTargetsInstructionAfterCall)
{
    Probe p([](Probe &w) {
        w.callFunction(7);
        w.returnFromFunction();
        w.emitAlu(1); // first caller instruction after the call
    });
    const auto insts = drain(p, 3);
    EXPECT_EQ(insts[1].target(), insts[0].pc + 4);
    EXPECT_EQ(insts[2].pc, insts[0].pc + 4);
}

TEST(WorkloadBase, SameFunctionSamePcsOnEveryCall)
{
    Probe p([](Probe &w) {
        w.callFunction(9);
        w.emitAlu(1);
        w.emitAlu(2);
        w.returnFromFunction();
    });
    const auto first = drain(p, 4);
    const auto second = drain(p, 4);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(first[i].pc, second[i].pc) << i;
}

TEST(WorkloadBase, DistinctCalleesGetDistinctCallSites)
{
    // The direct-call layout: a caller reaches different callees from
    // different call-site PCs, so the BTB can learn each target.
    Probe p([](Probe &w) {
        for (uint32_t f = 20; f < 28; ++f) {
            w.callFunction(f);
            w.returnFromFunction();
        }
    });
    const auto insts = drain(p, 16);
    std::set<uint64_t> call_pcs;
    for (const auto &inst : insts) {
        if (inst.brKind() == BranchKind::Call)
            call_pcs.insert(inst.pc);
    }
    EXPECT_GE(call_pcs.size(), 7u);
}

TEST(WorkloadBase, LoopBackReusesPcs)
{
    Probe p([](Probe &w) {
        w.callFunction(3);
        const uint64_t head = w.loopHead();
        for (int iter = 0; iter < 3; ++iter) {
            w.emitAlu(1);
            w.emitAlu(2);
            w.loopBack(head, iter + 1 < 3);
        }
        w.returnFromFunction();
    });
    const auto insts = drain(p, 11);
    // Iterations 1 and 2 reuse the same body PCs and back-edge PC.
    EXPECT_EQ(insts[1].pc, insts[4].pc);
    EXPECT_EQ(insts[2].pc, insts[5].pc);
    EXPECT_EQ(insts[3].pc, insts[6].pc); // the branch
    EXPECT_TRUE(insts[3].taken());
    EXPECT_FALSE(insts[9].taken()); // final iteration falls through
    EXPECT_EQ(insts[3].target(), insts[1].pc);
}

TEST(WorkloadBase, CondBranchSkipsForward)
{
    Probe p([](Probe &w) {
        w.callFunction(4);
        w.emitCondBranch(true, trace::noReg, 2);
        w.emitAlu(1); // lands AFTER the skipped slots
        w.returnFromFunction();
    });
    const auto insts = drain(p, 3);
    EXPECT_EQ(insts[0].brKind(), BranchKind::Call);
    EXPECT_EQ(insts[1].cls(), InstClass::Branch);
    EXPECT_EQ(insts[2].pc, insts[1].target());
}

TEST(WorkloadBase, HotWorkMixesLoadsIntoCompute)
{
    Probe p([](Probe &w) {
        w.callFunction(5);
        w.emitHotWork(1, 40, 0x1'0000'0000ULL, 64);
        w.returnFromFunction();
    });
    const auto insts = drain(p, 42);
    unsigned loads = 0, alus = 0;
    for (const auto &inst : insts) {
        loads += inst.cls() == InstClass::Load;
        alus += inst.cls() == InstClass::Alu;
    }
    EXPECT_NEAR(loads, 10u, 2u); // ~1 load per 4 instructions
    EXPECT_GT(alus, 25u);
}

TEST(WorkloadBase, SameSeedReproducesExactly)
{
    const Probe::Body body = [](Probe &w) {
        w.callFunction(6);
        w.emitHotWork(1, 16, 0x1'0000'0000ULL, 64);
        w.emitCondBranch(w.random().chance(0.5), 2, 2);
        w.returnFromFunction();
    };
    Probe p(body), q(body);
    const auto first = drain(p, 50);
    const auto second = drain(q, 50);
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].pc, second[i].pc) << i;
        EXPECT_EQ(first[i].effAddr, second[i].effAddr) << i;
        EXPECT_EQ(first[i].taken(), second[i].taken()) << i;
    }
}

TEST(WorkloadBase, PcsStayInsideTheFunctionStride)
{
    Probe p([](Probe &w) {
        w.callFunction(11);
        w.emitCompute(1, 500); // longer than funcStride/4 slots: wraps
        w.returnFromFunction();
    });
    const auto insts = drain(p, 400);
    const uint64_t base = insts[0].target();
    for (size_t i = 1; i < insts.size(); ++i) {
        EXPECT_GE(insts[i].pc, base);
        EXPECT_LT(insts[i].pc, base + 1024);
    }
}

namespace {

/** Every generator makeWorkload() knows, plus the micro workloads, as
 *  factories of fresh generators at one seed. */
std::vector<std::function<std::unique_ptr<WorkloadBase>()>>
everyGenerator()
{
    std::vector<std::function<std::unique_ptr<WorkloadBase>()>> out;
    for (const std::string &name : commercialWorkloadNames())
        out.push_back([name] { return makeWorkload(name, 7); });
    out.push_back([] {
        return std::make_unique<PointerChaseWorkload>(
            PointerChaseWorkload::Params{});
    });
    out.push_back([] {
        return std::make_unique<IndependentStreamsWorkload>(
            IndependentStreamsWorkload::Params{});
    });
    out.push_back([] {
        return std::make_unique<SerializingStormWorkload>(
            SerializingStormWorkload::Params{});
    });
    out.push_back([] {
        return std::make_unique<PrefetchedStreamWorkload>(
            PrefetchedStreamWorkload::Params{});
    });
    return out;
}

} // namespace

TEST(WorkloadBase, BatchFillYieldsTheSameStreamAsNext)
{
    // Odd batch sizes straddle every generate() unit boundary; a
    // next() between batches checks that the two calls share one
    // stream position.
    constexpr size_t total = 100'000;
    const uint32_t batches[] = {1, 7, 613, 4096, 3, 16384};
    for (const auto &make : everyGenerator()) {
        auto reference = make();
        auto batched = make();
        SCOPED_TRACE(reference->name());

        std::vector<Instruction> expected(total);
        for (Instruction &inst : expected)
            ASSERT_TRUE(reference->next(inst));

        std::vector<Instruction> actual;
        trace::TraceChunk chunk(0, 1u << 14);
        for (size_t b = 0; actual.size() < total; ++b) {
            chunk.count = 0;
            trace::ChunkFiller fill(chunk);
            const uint32_t want = uint32_t(std::min<size_t>(
                batches[b % std::size(batches)], total - actual.size()));
            ASSERT_EQ(batched->nextBatch(fill, want), want);
            fill.publish();
            for (uint32_t i = 0; i < chunk.count; ++i)
                actual.push_back(chunk.get(i));
            if (b % 5 == 4 && actual.size() < total) {
                Instruction inst;
                ASSERT_TRUE(batched->next(inst));
                actual.push_back(inst);
            }
        }

        ASSERT_EQ(actual.size(), total);
        for (size_t i = 0; i < total; ++i) {
            const Instruction &x = actual[i];
            const Instruction &y = expected[i];
            ASSERT_EQ(x.pc, y.pc) << "at " << i;
            ASSERT_EQ(x.effAddr, y.effAddr) << "at " << i;
            ASSERT_EQ(x.rawPayload(), y.rawPayload()) << "at " << i;
            ASSERT_EQ(x.rawMeta(), y.rawMeta()) << "at " << i;
            ASSERT_EQ(x.dst, y.dst) << "at " << i;
            for (int k = 0; k < 3; ++k)
                ASSERT_EQ(x.src[k], y.src[k]) << "at " << i << " src " << k;
        }
    }
}

} // namespace mlpsim::test
