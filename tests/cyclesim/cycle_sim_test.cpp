/** @file Timed pipeline behaviour on hand-scripted traces. */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <queue>
#include <random>
#include <unordered_map>
#include <vector>

#include "cyclesim/cycle_sim.hh"
#include "tests/support/test_harness.hh"

namespace mlpsim::test {

using core::IssueConfig;
using cyclesim::CycleSim;
using cyclesim::CycleSimConfig;
using cyclesim::CycleSimResult;
using trace::makeAlu;
using trace::makeBranch;
using trace::makeLoad;
using trace::makePrefetch;
using trace::makeSerializing;
using trace::makeStore;
using trace::noReg;

namespace {

constexpr uint8_t r1 = 1, r2 = 2;

cyclesim::CycleSimResult
run(ScriptedTrace &s, const CycleSimConfig &cfg)
{
    CycleSim sim(cfg, s.context());
    return sim.run();
}

} // namespace

TEST(CycleSim, SerialAluChainRunsAtOneIpc)
{
    ScriptedTrace s;
    for (unsigned i = 0; i < 1000; ++i)
        s.add(makeAlu(0x100 + 4 * i, r1, r1)); // dst <- f(dst): serial
    const auto r = run(s, CycleSimConfig{});
    EXPECT_NEAR(r.cpi(), 1.0, 0.05);
}

TEST(CycleSim, IndependentAlusUseTheFullWidth)
{
    ScriptedTrace s;
    for (unsigned i = 0; i < 3000; ++i)
        s.add(makeAlu(0x100 + 4 * i, uint8_t(1 + (i % 32))));
    CycleSimConfig cfg;
    const auto r = run(s, cfg);
    EXPECT_NEAR(r.cpi(), 1.0 / cfg.issueWidth, 0.05);
}

TEST(CycleSim, SingleMissCostsAboutTheLatency)
{
    ScriptedTrace s;
    s.add(makeLoad(0x100, r1, 0xA000, noReg), Miss::Data);
    for (unsigned i = 0; i < 10; ++i)
        s.add(makeAlu(0x104 + 4 * i, r2, r1)); // all dependent
    CycleSimConfig cfg;
    cfg.offChipLatency = 300;
    const auto r = run(s, cfg);
    EXPECT_GT(r.cycles, 300u);
    EXPECT_LT(r.cycles, 340u);
    EXPECT_EQ(r.offChipAccesses, 1u);
}

TEST(CycleSim, TwoIndependentMissesOverlap)
{
    ScriptedTrace s;
    s.add(makeLoad(0x100, r1, 0xA000, noReg), Miss::Data);
    s.add(makeLoad(0x104, r2, 0xB000, noReg), Miss::Data);
    s.add(makeAlu(0x108, r1, r1));
    CycleSimConfig cfg;
    cfg.offChipLatency = 300;
    const auto r = run(s, cfg);
    EXPECT_LT(r.cycles, 330u); // overlapped, not 600
    EXPECT_NEAR(r.mlp(), 2.0, 0.05);
}

TEST(CycleSim, DependentMissesSerialise)
{
    ScriptedTrace s;
    s.add(makeLoad(0x100, r1, 0xA000, noReg), Miss::Data);
    s.add(makeLoad(0x104, r2, 0xB000, r1), Miss::Data);
    CycleSimConfig cfg;
    cfg.offChipLatency = 300;
    const auto r = run(s, cfg);
    EXPECT_GT(r.cycles, 600u);
    EXPECT_NEAR(r.mlp(), 1.0, 0.01);
}

TEST(CycleSim, PerfectL2RemovesOffChipTime)
{
    ScriptedTrace s;
    s.add(makeLoad(0x100, r1, 0xA000, noReg), Miss::Data);
    s.add(makeLoad(0x104, r2, 0xB000, r1), Miss::Data);
    CycleSimConfig cfg;
    cfg.perfectL2 = true;
    const auto r = run(s, cfg);
    EXPECT_LT(r.cycles, 60u);
    EXPECT_EQ(r.offChipAccesses, 0u);
}

TEST(CycleSim, InstructionMissStallsFetch)
{
    ScriptedTrace s;
    s.add(makeAlu(0x100, r1), Miss::Fetch);
    s.add(makeAlu(0x104, r1));
    CycleSimConfig cfg;
    cfg.offChipLatency = 250;
    const auto r = run(s, cfg);
    EXPECT_GT(r.cycles, 250u);
    EXPECT_EQ(r.offChipAccesses, 1u);
}

TEST(CycleSim, MispredictStallsUntilResolutionPlusRedirect)
{
    ScriptedTrace s;
    s.add(makeLoad(0x100, r1, 0xA000, noReg), Miss::Data);
    s.add(makeBranch(0x104, 0x200, true, r1), Miss::None, true);
    s.add(makeAlu(0x108, r2));
    CycleSimConfig cfg;
    cfg.offChipLatency = 300;
    const auto r = run(s, cfg);
    // The branch resolves only after the load returns.
    EXPECT_GT(r.cycles, 300u + cfg.branchRedirectPenalty);
}

TEST(CycleSim, ResolvedMispredictIsCheap)
{
    ScriptedTrace s;
    s.add(makeAlu(0x100, r1));
    s.add(makeBranch(0x104, 0x200, true, r1), Miss::None, true);
    for (unsigned i = 0; i < 50; ++i)
        s.add(makeAlu(0x108 + 4 * i, r2));
    const auto r = run(s, CycleSimConfig{});
    EXPECT_LT(r.cycles, 60u);
}

TEST(CycleSim, SerializingDrainsThePipeline)
{
    ScriptedTrace s;
    s.add(makeLoad(0x100, r1, 0xA000, noReg), Miss::Data);
    s.add(makeSerializing(0x104));
    s.add(makeLoad(0x108, r2, 0xB000, noReg), Miss::Data);
    CycleSimConfig cfg;
    cfg.offChipLatency = 300;
    const auto r = run(s, cfg);
    // The second load cannot start until the first completes: ~2x.
    EXPECT_GT(r.cycles, 600u);
    EXPECT_NEAR(r.mlp(), 1.0, 0.01);
}

TEST(CycleSim, ConfigAKeepsLoadsInOrder)
{
    ScriptedTrace s;
    s.add(makeLoad(0x100, r1, 0xA000, noReg), Miss::Data);
    s.add(makeLoad(0x104, r2, 0xB000, r1)); // dependent (hit)
    s.add(makeLoad(0x108, uint8_t(3), 0xC000, noReg), Miss::Data);
    CycleSimConfig a;
    a.issue = IssueConfig::A;
    a.offChipLatency = 300;
    const auto ra = run(s, a);
    CycleSimConfig c;
    c.offChipLatency = 300;
    const auto rc = run(s, c);
    EXPECT_GT(ra.cycles, rc.cycles + 200);
    EXPECT_GT(rc.mlp(), ra.mlp() + 0.5);
}

TEST(CycleSim, L2HitLatencyIsUsed)
{
    // A dataL2Hit-annotated load costs ~l2Latency, not off-chip time.
    ScriptedTrace s;
    s.add(makeLoad(0x100, r1, 0xA000, noReg));
    s.add(makeAlu(0x104, r2, r1));
    const auto r = run(s, CycleSimConfig{});
    EXPECT_LT(r.cycles, 30u);
}

TEST(CycleSim, WarmupSplitsMeasurement)
{
    ScriptedTrace s;
    for (unsigned i = 0; i < 20; ++i)
        s.add(makeLoad(0x100 + 4 * i, r1, 0xA000 + 0x1000ull * i, r1),
              Miss::Data);
    CycleSimConfig cfg;
    cfg.offChipLatency = 100;
    cfg.warmupInsts = 10;
    const auto r = run(s, cfg);
    EXPECT_EQ(r.instructions, 10u);
    EXPECT_EQ(r.offChipAccesses, 10u);
    EXPECT_NEAR(r.cpi(), 100.0, 15.0); // one serial miss per inst
}

TEST(CycleSimDeath, RejectsConfigsDAndE)
{
    ScriptedTrace s;
    s.add(makeAlu(0x100, r1));
    const auto ctx = s.context();
    CycleSimConfig cfg;
    cfg.issue = IssueConfig::D;
    EXPECT_DEATH({ CycleSim sim(cfg, ctx); }, "A-C");
}

TEST(CycleSimConfigValidate, AcceptsTheDefaults)
{
    EXPECT_TRUE(CycleSimConfig{}.validate().ok());
}

TEST(CycleSimConfigValidate, RejectsBadConfigs)
{
    {
        CycleSimConfig cfg;
        cfg.issue = IssueConfig::E;
        const auto s = cfg.validate();
        EXPECT_FALSE(s.ok());
        EXPECT_NE(s.message().find("A-C"), std::string::npos);
    }
    for (unsigned CycleSimConfig::*width :
         {&CycleSimConfig::fetchWidth, &CycleSimConfig::dispatchWidth,
          &CycleSimConfig::issueWidth, &CycleSimConfig::commitWidth,
          &CycleSimConfig::fetchBufferSize,
          &CycleSimConfig::issueWindowSize, &CycleSimConfig::robSize,
          &CycleSimConfig::aluLatency, &CycleSimConfig::l1Latency,
          &CycleSimConfig::l2Latency, &CycleSimConfig::offChipLatency}) {
        CycleSimConfig cfg;
        cfg.*width = 0;
        EXPECT_FALSE(cfg.validate().ok());
    }
    // Latencies are capped: the scheduler's calendar ring spans the
    // largest of them, so an unbounded one would size it unboundedly.
    for (unsigned CycleSimConfig::*latency :
         {&CycleSimConfig::aluLatency, &CycleSimConfig::l1Latency,
          &CycleSimConfig::l2Latency, &CycleSimConfig::offChipLatency}) {
        CycleSimConfig cfg;
        cfg.*latency = CycleSimConfig::maxLatency;
        EXPECT_TRUE(cfg.validate().ok());
        cfg.*latency = CycleSimConfig::maxLatency + 1;
        const auto s = cfg.validate();
        EXPECT_FALSE(s.ok());
        EXPECT_NE(s.message().find("<= 65536"), std::string::npos)
            << s.message();
        cfg.*latency = 4'000'000'000u;
        EXPECT_FALSE(cfg.validate().ok());
    }
}

// --- warm-up accounting at the trace boundary ------------------------

TEST(CycleSim, WarmupEqualToTraceSizeMeasuresNothing)
{
    ScriptedTrace s;
    for (unsigned i = 0; i < 10; ++i)
        s.add(makeAlu(0x100 + 4 * i, r1));
    CycleSimConfig cfg;
    cfg.warmupInsts = 10;
    const auto r = run(s, cfg);
    EXPECT_EQ(r.instructions, 0u);
    EXPECT_EQ(r.offChipAccesses, 0u);
    EXPECT_EQ(r.cpi(), 0.0);
}

TEST(CycleSim, WarmupBeyondTraceSizeMeasuresNothing)
{
    // Regression: the pre-fix accounting computed committed -
    // warmupInsts unconditionally, so a warm-up larger than the trace
    // wrapped around to ~2^64 instructions.
    ScriptedTrace s;
    for (unsigned i = 0; i < 10; ++i)
        s.add(makeAlu(0x100 + 4 * i, r1));
    CycleSimConfig cfg;
    cfg.warmupInsts = 1000;
    const auto r = run(s, cfg);
    EXPECT_EQ(r.instructions, 0u);
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_EQ(r.cpi(), 0.0);
    EXPECT_EQ(r.mlp(), 0.0);
}

TEST(CycleSim, EmptyTraceFinishesImmediately)
{
    ScriptedTrace s;
    const auto r = run(s, CycleSimConfig{});
    EXPECT_EQ(r.instructions, 0u);
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_EQ(r.offChipAccesses, 0u);
}

// --- structural edge cases -------------------------------------------

TEST(CycleSim, SerializingFirstInstructionDispatchesIntoTheEmptyRob)
{
    ScriptedTrace s;
    s.add(makeSerializing(0x100));
    for (unsigned i = 0; i < 20; ++i)
        s.add(makeAlu(0x104 + 4 * i, r1));
    const auto r = run(s, CycleSimConfig{});
    EXPECT_EQ(r.instructions, 21u);
    EXPECT_LT(r.cycles, 40u);
}

TEST(CycleSim, BackToBackFetchMissesEachStallOnce)
{
    ScriptedTrace s;
    s.add(makeAlu(0x100, r1), Miss::Fetch);
    s.add(makeAlu(0x104, r1), Miss::Fetch);
    s.add(makeAlu(0x108, r1));
    CycleSimConfig cfg;
    cfg.offChipLatency = 250;
    const auto r = run(s, cfg);
    EXPECT_EQ(r.offChipAccesses, 2u);
    EXPECT_GT(r.cycles, 500u);
    EXPECT_LT(r.cycles, 560u);
}

TEST(CycleSim, PerfectL2ReportsNoMlp)
{
    // With a perfect L2 nothing goes off-chip, so the MLP accumulator
    // must stay empty: no outstanding-access cycles at all.
    ScriptedTrace s;
    s.add(makeLoad(0x100, r1, 0xA000, noReg), Miss::Data);
    s.add(makeLoad(0x104, r2, 0xB000, noReg), Miss::Data);
    s.add(makeAlu(0x108, r1, r2));
    CycleSimConfig cfg;
    cfg.perfectL2 = true;
    const auto r = run(s, cfg);
    EXPECT_EQ(r.offChipAccesses, 0u);
    EXPECT_EQ(r.mlpCycles, 0u);
    EXPECT_EQ(r.mlp(), 0.0);
    EXPECT_EQ(r.missRatePer100(), 0.0);
}

// --- old-vs-new scheduler equivalence --------------------------------
//
// A line-for-line copy of the pre-overhaul scheduler: std::deque ROB,
// per-cycle rescan of the unissued window, unordered_map store
// producers. The production scheduler (ring-buffer ROB, event-driven
// wakeup) must reproduce its timing bit for bit; the seeded mini-grid
// below compares every result field exactly.

namespace {

class ReferencePipeline
{
  public:
    ReferencePipeline(const CycleSimConfig &config,
                      const core::WorkloadContext &workload)
        : cfg(config), wl(workload),
          buffer(*workload.source->materialized())
    {
    }

    CycleSimResult
    run()
    {
        const uint64_t trace_size = wl.size();
        result = CycleSimResult{};
        if (cfg.warmupInsts == 0)
            measuring = true;

        while (committed < trace_size) {
            bool work = false;
            work |= commitStage();
            work |= issueStage();
            work |= dispatchStage();
            work |= fetchStage();

            uint64_t next = now + 1;
            if (!work) {
                const uint64_t event = nextEventCycle();
                if (event == ~0ULL) {
                    ADD_FAILURE() << "reference pipeline deadlock at "
                                  << now;
                    return result;
                }
                next = std::max(next, event);
            }
            while (!events.empty() && events.top() <= now)
                events.pop();
            accumulateMlp(now, next);
            now = next;
        }

        result.cycles = measuring ? now - measureStartCycle : 0;
        result.instructions = committed > cfg.warmupInsts
                                  ? committed - cfg.warmupInsts
                                  : 0;
        return result;
    }

  private:
    struct RobEntry
    {
        uint64_t seq = 0;
        uint64_t prods[4] = {};
        uint64_t completeCycle = 0;
        uint8_t numProds = 0;
        uint8_t numAddrProds = 0;
        bool issued = false;
        bool isPrefetch = false;
        bool isMemOp = false;
        bool isLoadLike = false;
        bool isStore = false;
        bool isBranch = false;
        bool isSerializing = false;
        bool dMiss = false;
        bool usefulPmiss = false;
        bool dL2 = false;
    };

    bool
    producerComplete(uint64_t prod_seq) const
    {
        if (prod_seq == 0 || prod_seq < headSeq)
            return true;
        if (prod_seq >= headSeq + rob.size())
            return false;
        const RobEntry &producer = rob[size_t(prod_seq - headSeq)];
        return producer.issued && producer.completeCycle <= now;
    }

    bool
    operandsComplete(const RobEntry &entry) const
    {
        for (unsigned p = 0; p < entry.numProds; ++p) {
            if (!producerComplete(entry.prods[p]))
                return false;
        }
        return true;
    }

    bool
    storeAddrComplete(const RobEntry &entry) const
    {
        for (unsigned p = 0; p < entry.numAddrProds; ++p) {
            if (!producerComplete(entry.prods[p]))
                return false;
        }
        return true;
    }

    unsigned
    dataLatency(const RobEntry &entry) const
    {
        if (entry.dMiss)
            return cfg.perfectL2 ? cfg.l2Latency : cfg.offChipLatency;
        if (entry.dL2)
            return cfg.l2Latency;
        return cfg.l1Latency;
    }

    RobEntry
    makeEntry(uint64_t idx)
    {
        const trace::Instruction &inst = buffer.at(idx);
        RobEntry entry;
        entry.seq = idx + 1;

        const bool atomic_mem =
            inst.cls() == trace::InstClass::Serializing &&
            inst.effAddr != 0;
        entry.isMemOp = inst.isMem();
        entry.isPrefetch = inst.isPrefetch();
        entry.isLoadLike =
            inst.isLoad() || inst.isPrefetch() || atomic_mem;
        entry.isStore = inst.isStore();
        entry.isBranch = inst.isBranch();
        entry.isSerializing = inst.isSerializing();
        entry.dMiss = wl.misses->dataMiss(idx);
        entry.usefulPmiss = wl.misses->usefulPrefetch(idx);
        entry.dL2 = wl.misses->dataL2Hit(idx);

        auto capture = [&](uint8_t reg) {
            if (reg == noReg)
                return;
            const uint64_t prod = regProducer[reg];
            if (prod != 0)
                entry.prods[entry.numProds++] = prod;
        };
        if (entry.isStore) {
            capture(inst.src[0]);
            capture(inst.src[2]);
            entry.numAddrProds = entry.numProds;
            capture(inst.src[1]);
        } else {
            for (unsigned s = 0; s < trace::maxSrcRegs; ++s)
                capture(inst.src[s]);
            entry.numAddrProds = entry.numProds;
        }

        const uint64_t mem_key = inst.effAddr >> 3;
        if (entry.isLoadLike && !inst.isPrefetch()) {
            auto it = storeProducer.find(mem_key);
            if (it != storeProducer.end() && entry.numProds < 4)
                entry.prods[entry.numProds++] = it->second;
        }
        if (entry.isStore || atomic_mem)
            storeProducer[mem_key] = entry.seq;

        if (inst.hasDst())
            regProducer[inst.dst] = entry.seq;
        return entry;
    }

    void
    recordOffChip(uint64_t idx, uint64_t complete_cycle)
    {
        outstanding.push(complete_cycle);
        events.push(complete_cycle);
        if (idx >= cfg.warmupInsts)
            ++result.offChipAccesses;
    }

    bool
    commitStage()
    {
        bool any = false;
        for (unsigned n = 0; n < cfg.commitWidth && !rob.empty(); ++n) {
            const RobEntry &head = rob.front();
            if (!head.issued || head.completeCycle > now)
                break;
            const trace::Instruction &inst = buffer.at(head.seq - 1);
            if (inst.hasDst() && regProducer[inst.dst] == head.seq)
                regProducer[inst.dst] = 0;
            if (head.isStore ||
                (head.isSerializing && inst.effAddr != 0)) {
                auto it = storeProducer.find(inst.effAddr >> 3);
                if (it != storeProducer.end() && it->second == head.seq)
                    storeProducer.erase(it);
            }
            if (serializeBlockSeq == head.seq)
                serializeBlockSeq = 0;
            rob.pop_front();
            ++headSeq;
            ++committed;
            any = true;
            if (!measuring && committed >= cfg.warmupInsts) {
                measuring = true;
                measureStartCycle = now;
            }
        }
        return any;
    }

    bool
    issueStage()
    {
        bool any = false;
        unsigned issued_now = 0;
        bool seen_unissued_mem = false;
        bool seen_unresolved_store = false;
        bool seen_unissued_branch = false;

        std::vector<uint64_t> still;
        still.reserve(unissued.size());

        for (uint64_t seq : unissued) {
            RobEntry &entry = rob[size_t(seq - headSeq)];

            bool eligible = issued_now < cfg.issueWidth;
            if (cfg.issue == IssueConfig::A && entry.isMemOp &&
                seen_unissued_mem) {
                eligible = false;
            }
            if (cfg.issue == IssueConfig::B && entry.isLoadLike &&
                seen_unresolved_store) {
                eligible = false;
            }
            if (entry.isBranch && seen_unissued_branch)
                eligible = false;

            if (eligible && operandsComplete(entry)) {
                entry.issued = true;
                ++issued_now;
                any = true;

                unsigned latency = cfg.aluLatency;
                if (entry.isPrefetch)
                    latency = 1;
                else if (entry.isLoadLike)
                    latency = dataLatency(entry);
                entry.completeCycle = now + latency;
                events.push(entry.completeCycle);

                const uint64_t idx = entry.seq - 1;
                if (!cfg.perfectL2 && (entry.dMiss || entry.usefulPmiss))
                    recordOffChip(idx, now + cfg.offChipLatency);

                if (mispredBlockSeq == entry.seq) {
                    fetchResumeCycle =
                        std::max(fetchResumeCycle,
                                 entry.completeCycle +
                                     cfg.branchRedirectPenalty);
                    events.push(fetchResumeCycle);
                    mispredBlockSeq = 0;
                }
                continue;
            }

            still.push_back(seq);
            if (entry.isMemOp)
                seen_unissued_mem = true;
            if (entry.isStore && !storeAddrComplete(entry))
                seen_unresolved_store = true;
            if (entry.isBranch)
                seen_unissued_branch = true;
        }

        unissued.swap(still);
        return any;
    }

    bool
    dispatchStage()
    {
        bool any = false;
        for (unsigned n = 0; n < cfg.dispatchWidth; ++n) {
            if (nextDispatchIdx >= nextFetchIdx)
                break;
            if (serializeBlockSeq != 0)
                break;
            if (rob.size() >= cfg.robSize ||
                unissued.size() >= cfg.issueWindowSize) {
                break;
            }
            const trace::Instruction &inst =
                buffer.at(nextDispatchIdx);
            if (inst.isSerializing()) {
                if (!rob.empty())
                    break;
                rob.push_back(makeEntry(nextDispatchIdx));
                unissued.push_back(rob.back().seq);
                serializeBlockSeq = rob.back().seq;
                ++nextDispatchIdx;
                any = true;
                break;
            }
            rob.push_back(makeEntry(nextDispatchIdx));
            unissued.push_back(rob.back().seq);
            ++nextDispatchIdx;
            any = true;
        }
        return any;
    }

    bool
    fetchStage()
    {
        if (now < fetchResumeCycle || mispredBlockSeq != 0)
            return false;

        bool any = false;
        const uint64_t trace_size = wl.size();
        for (unsigned n = 0; n < cfg.fetchWidth; ++n) {
            if (nextFetchIdx >= trace_size ||
                nextFetchIdx - nextDispatchIdx >= cfg.fetchBufferSize) {
                break;
            }
            const uint64_t idx = nextFetchIdx;
            if (wl.misses->fetchMiss(idx) && !imissHandled) {
                imissHandled = true;
                const unsigned latency =
                    cfg.perfectL2 ? cfg.l2Latency : cfg.offChipLatency;
                fetchResumeCycle = now + latency;
                events.push(fetchResumeCycle);
                if (!cfg.perfectL2)
                    recordOffChip(idx, now + cfg.offChipLatency);
                any = true;
                break;
            }
            imissHandled = false;
            ++nextFetchIdx;
            any = true;

            const trace::Instruction &inst = buffer.at(idx);
            if (inst.isBranch() && wl.branches->isMispredict(idx)) {
                mispredBlockSeq = idx + 1;
                break;
            }
        }
        return any;
    }

    uint64_t
    nextEventCycle() const
    {
        uint64_t next = ~0ULL;
        if (!events.empty())
            next = events.top();
        if (fetchResumeCycle > now)
            next = std::min(next, fetchResumeCycle);
        return next;
    }

    void
    accumulateMlp(uint64_t from_cycle, uint64_t to_cycle)
    {
        while (from_cycle < to_cycle) {
            while (!outstanding.empty() &&
                   outstanding.top() <= from_cycle) {
                outstanding.pop();
            }
            if (outstanding.empty())
                return;
            const uint64_t seg_end =
                std::min<uint64_t>(to_cycle, outstanding.top());
            if (measuring) {
                result.mlpSum += double(outstanding.size()) *
                                 double(seg_end - from_cycle);
                result.mlpCycles += seg_end - from_cycle;
            }
            from_cycle = seg_end;
        }
    }

    const CycleSimConfig cfg;
    const core::WorkloadContext &wl;
    /** The legacy scheduler indexes the trace directly, so it only
     *  runs over materialised traces. */
    const trace::TraceBuffer &buffer;

    uint64_t now = 0;
    std::deque<RobEntry> rob;
    uint64_t headSeq = 1;
    std::vector<uint64_t> unissued;
    std::array<uint64_t, trace::numArchRegs> regProducer{};
    std::unordered_map<uint64_t, uint64_t> storeProducer;

    uint64_t nextFetchIdx = 0;
    uint64_t nextDispatchIdx = 0;
    uint64_t fetchResumeCycle = 0;
    bool imissHandled = false;
    uint64_t mispredBlockSeq = 0;
    uint64_t serializeBlockSeq = 0;

    std::priority_queue<uint64_t, std::vector<uint64_t>,
                        std::greater<uint64_t>>
        outstanding;
    std::priority_queue<uint64_t, std::vector<uint64_t>,
                        std::greater<uint64_t>>
        events;

    bool measuring = false;
    uint64_t committed = 0;
    uint64_t measureStartCycle = 0;
    CycleSimResult result;
};

/** A deterministic pseudo-random instruction mix: ALU chains, loads
 *  and stores over an aliasing address pool (exercising forwarding),
 *  prefetches, branches (some mispredicted), fetch misses and the odd
 *  serializing instruction, atomic or plain. */
ScriptedTrace
randomTrace(uint32_t seed, size_t n)
{
    std::mt19937 rng(seed);
    auto pick = [&](uint32_t bound) { return uint32_t(rng() % bound); };
    ScriptedTrace s;
    uint64_t pc = 0x1000;
    for (size_t i = 0; i < n; ++i, pc += 4) {
        const uint8_t dst = uint8_t(1 + pick(12));
        const uint8_t src = uint8_t(1 + pick(12));
        const uint64_t addr = 0xA000 + 8 * pick(24);
        const Miss fetch = pick(25) == 0 ? Miss::Fetch : Miss::None;
        const uint32_t roll = pick(100);
        if (roll < 40) {
            s.add(makeAlu(pc, dst, src,
                          pick(2) ? uint8_t(1 + pick(12)) : noReg),
                  fetch);
        } else if (roll < 62) {
            s.add(makeLoad(pc, dst, addr, pick(3) ? src : noReg),
                  pick(4) == 0 ? Miss::Data : fetch);
        } else if (roll < 77) {
            s.add(makeStore(pc, addr, src, uint8_t(1 + pick(12))),
                  fetch);
        } else if (roll < 84) {
            s.add(makePrefetch(pc, addr, pick(2) ? src : noReg),
                  pick(3) == 0 ? Miss::UsefulPrefetch : fetch);
        } else if (roll < 96) {
            s.add(makeBranch(pc, pc + 16, pick(2) != 0,
                             pick(2) ? src : noReg),
                  fetch, pick(6) == 0);
        } else if (roll < 98) {
            s.add(makeSerializing(pc), fetch);
        } else {
            s.add(makeSerializing(pc, addr, src), fetch); // atomic
        }
    }
    return s;
}

void
expectMatchesReference(const CycleSimConfig &cfg,
                       const core::WorkloadContext &ctx)
{
    const auto expect = ReferencePipeline(cfg, ctx).run();
    const auto got = CycleSim(cfg, ctx).run();
    EXPECT_EQ(got.cycles, expect.cycles);
    EXPECT_EQ(got.instructions, expect.instructions);
    EXPECT_EQ(got.offChipAccesses, expect.offChipAccesses);
    EXPECT_EQ(got.mlpCycles, expect.mlpCycles);
    EXPECT_EQ(got.mlpSum, expect.mlpSum);
}

} // namespace

TEST(CycleSimEquivalence, MatchesTheLegacyScanSchedulerExactly)
{
    // Off-chip latencies straddle the scheduler's power-of-two ring
    // sizes (63 | 64, 65 and 1024 | 1025 land on either side of a
    // bucket-count boundary), so a wrap-around slip cannot hide.
    for (uint32_t seed : {1u, 2u, 3u}) {
        ScriptedTrace s = randomTrace(0xC0FFEE + seed, 600);
        const auto ctx = s.context();
        for (auto ic : {IssueConfig::A, IssueConfig::B, IssueConfig::C}) {
            for (unsigned window : {8u, 32u}) {
                for (unsigned lat : {60u, 63u, 64u, 65u, 300u, 1024u,
                                     1025u}) {
                    for (uint64_t warm : {uint64_t(0), uint64_t(100)}) {
                        CycleSimConfig cfg;
                        cfg.issue = ic;
                        cfg.issueWindowSize = window;
                        cfg.robSize = window == 8 ? 16 : 32;
                        cfg.offChipLatency = lat;
                        cfg.warmupInsts = warm;
                        SCOPED_TRACE(testing::Message()
                                     << "seed=" << seed << " "
                                     << cfg.metricLabel()
                                     << " warm=" << warm);
                        expectMatchesReference(cfg, ctx);
                    }
                }
            }
            for (unsigned lat : {60u, 300u}) {
                CycleSimConfig cfg;
                cfg.issue = ic;
                cfg.offChipLatency = lat;
                {
                    // A perfect L2 turns every off-chip access, data
                    // and instruction, into an L2 hit.
                    CycleSimConfig perfect = cfg;
                    perfect.perfectL2 = true;
                    perfect.warmupInsts = 100;
                    SCOPED_TRACE(testing::Message()
                                 << "seed=" << seed << " "
                                 << perfect.metricLabel());
                    expectMatchesReference(perfect, ctx);
                }
                {
                    // A redirect penalty longer than the off-chip
                    // latency resumes fetch beyond the farthest
                    // scheduled completion.
                    CycleSimConfig redirect = cfg;
                    redirect.branchRedirectPenalty = 3 * lat + 7;
                    SCOPED_TRACE(testing::Message()
                                 << "seed=" << seed << " "
                                 << redirect.metricLabel() << " redirect="
                                 << redirect.branchRedirectPenalty);
                    expectMatchesReference(redirect, ctx);
                }
            }
        }
    }
}

} // namespace mlpsim::test
