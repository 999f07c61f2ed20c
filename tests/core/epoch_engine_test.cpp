/** @file Epoch-engine semantics beyond the paper's worked examples:
 *  window structures, fetch buffer, termination bookkeeping, memory
 *  dependences, the epoch horizon. */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "tests/support/test_harness.hh"

namespace mlpsim::test {

using core::Inhibitor;
using core::IssueConfig;
using core::MlpConfig;
using trace::makeAlu;
using trace::makeBranch;
using trace::makeLoad;
using trace::makePrefetch;
using trace::makeSerializing;
using trace::makeStore;
using trace::noReg;

namespace {

constexpr uint8_t r1 = 1, r2 = 2, r3 = 3, r4 = 4, r5 = 5, r6 = 6;

/** N independent missing loads with @p pad ALU ops in between. */
ScriptedTrace
independentMisses(unsigned n, unsigned pad = 0)
{
    ScriptedTrace s;
    for (unsigned i = 0; i < n; ++i) {
        s.add(makeLoad(0x100 + 64 * i, uint8_t(10 + (i % 40)),
                       0xA000 + 0x1000ull * i, noReg),
              Miss::Data);
        for (unsigned p = 0; p < pad; ++p)
            s.add(makeAlu(0x104 + 64 * i + 4 * p, r1, r1));
    }
    return s;
}

/** @p n on-chip instructions with no off-chip access: a short ALU
 *  dependence chain plus independent ops, as a quiet stretch. */
void
addQuiet(ScriptedTrace &s, unsigned n, uint64_t pc = 0x1000)
{
    for (unsigned i = 0; i < n; ++i) {
        const uint64_t at = pc + 4 * i;
        if (i % 3 == 0)
            s.add(makeAlu(at, r6, r6));
        else
            s.add(makeAlu(at, uint8_t(20 + i % 8)));
    }
}

/**
 * Re-chunks a materialised trace into tiny chunks and streams them,
 * recording the most chunks any one stream had alive at once (the
 * engine's chunk window plus its cursors' cached chunks).
 */
class SmallChunkSource : public trace::ChunkSource
{
  public:
    SmallChunkSource(const trace::TraceBuffer &buffer, uint32_t cap)
        : buf(buffer), cap(cap)
    {
    }

    uint64_t size() const override { return buf.size(); }
    std::string name() const override { return "small-chunks"; }

    std::unique_ptr<trace::ChunkStream>
    open() const override
    {
        return std::make_unique<Stream>(*this);
    }

    size_t maxLiveChunks() const { return maxLive; }

  private:
    class Stream : public trace::ChunkStream
    {
      public:
        explicit Stream(const SmallChunkSource &source) : src(source) {}

        trace::ChunkPtr
        next() override
        {
            if (pos >= src.buf.size())
                return nullptr;
            auto chunk = std::make_shared<trace::TraceChunk>(pos, src.cap);
            while (!chunk->full() && pos < src.buf.size())
                chunk->append(src.buf.at(size_t(pos++)));
            std::erase_if(issued, [](const auto &w) { return w.expired(); });
            issued.push_back(chunk);
            src.maxLive = std::max(src.maxLive, issued.size());
            return chunk;
        }

      private:
        const SmallChunkSource &src;
        uint64_t pos = 0;
        std::vector<std::weak_ptr<const trace::TraceChunk>> issued;
    };

    const trace::TraceBuffer &buf;
    uint32_t cap;
    mutable size_t maxLive = 0;
};

} // namespace

TEST(EpochEngine, AllIndependentMissesOverlapInLargeWindow)
{
    auto s = independentMisses(10);
    const auto r = s.run(MlpConfig::sized(64, IssueConfig::C));
    EXPECT_EQ(r.epochs, 1u);
    EXPECT_EQ(r.usefulAccesses, 10u);
    EXPECT_DOUBLE_EQ(r.mlp(), 10.0);
}

TEST(EpochEngine, WindowSizeCapsOverlap)
{
    auto s = independentMisses(16, 3); // 4 insts per miss
    // ROB of 8 holds 2 misses (and their pads) per epoch.
    const auto r = s.run(MlpConfig::sized(8, IssueConfig::C));
    EXPECT_EQ(r.usefulAccesses, 16u);
    EXPECT_NEAR(r.mlp(), 2.0, 0.3);
    EXPECT_GT(r.inhibitors[Inhibitor::Maxwin], 0u);
}

TEST(EpochEngine, MlpGrowsMonotonicallyWithWindow)
{
    auto s = independentMisses(64, 3);
    double prev = 0.0;
    for (unsigned w : {4u, 8u, 16u, 32u, 64u, 128u}) {
        const double mlp = s.run(MlpConfig::sized(w, IssueConfig::C)).mlp();
        EXPECT_GE(mlp, prev - 1e-9) << "window " << w;
        prev = mlp;
    }
}

TEST(EpochEngine, DependentChainNeverOverlaps)
{
    ScriptedTrace s;
    for (unsigned i = 0; i < 8; ++i)
        s.add(makeLoad(0x100 + 4 * i, r1, 0xA000 + 0x1000ull * i, r1),
              Miss::Data);
    const auto r = s.run(MlpConfig::infinite());
    EXPECT_EQ(r.epochs, 8u);
    EXPECT_DOUBLE_EQ(r.mlp(), 1.0);
}

TEST(EpochEngine, RobLimitsEvenWhenIssueWindowIsLarge)
{
    auto s = independentMisses(16, 3);
    MlpConfig cfg = MlpConfig::sized(8, IssueConfig::C);
    cfg.issueWindowSize = 256; // ROB (8) must still bind
    const auto r = s.run(cfg);
    EXPECT_NEAR(r.mlp(), 2.0, 0.3);
}

TEST(EpochEngine, IssueWindowLimitsWhenRobIsLarge)
{
    // Dependent instructions clog the issue window: each miss is
    // followed by 3 dependent ALUs that cannot issue until the miss
    // returns.
    ScriptedTrace s;
    for (unsigned i = 0; i < 12; ++i) {
        const uint8_t reg = uint8_t(10 + i);
        s.add(makeLoad(0x100 + 16 * i, reg, 0xA000 + 0x1000ull * i,
                       noReg),
              Miss::Data);
        for (int p = 0; p < 3; ++p)
            s.add(makeAlu(0x104 + 16 * i + 4u * unsigned(p), reg, reg));
    }
    MlpConfig small = MlpConfig::sized(8, IssueConfig::C);
    small.robSize = 2048; // only the 8-entry issue window binds
    MlpConfig large = small;
    large.issueWindowSize = 2048;
    const double bound = s.run(small).mlp();
    const double free = s.run(large).mlp();
    // The issue window limits overlap well below the unbounded case
    // but still above the fully-coupled tiny machine.
    EXPECT_LT(bound, 0.5 * free);
    EXPECT_GT(bound, 1.5);
}

TEST(EpochEngine, DecoupledRobBeatsCoupled)
{
    // Dependents clog the ROB in the coupled machine; enlarging only
    // the ROB lets more misses in (paper Section 5.3.2).
    ScriptedTrace s;
    for (unsigned i = 0; i < 32; ++i) {
        const uint8_t reg = uint8_t(10 + (i % 40));
        s.add(makeLoad(0x100 + 32 * i, reg, 0xA000 + 0x1000ull * i,
                       noReg),
              Miss::Data);
        for (int p = 0; p < 5; ++p)
            s.add(makeAlu(0x104 + 32 * i + 4u * unsigned(p), reg, reg));
    }
    MlpConfig coupled = MlpConfig::sized(12, IssueConfig::C);
    MlpConfig decoupled = coupled;
    decoupled.robSize = 96;
    EXPECT_GT(s.run(decoupled).mlp(), s.run(coupled).mlp() + 0.5);
}

TEST(EpochEngine, FetchBufferExtendsImissOverlap)
{
    // A data miss, then an instruction miss shortly after: the fetch
    // buffer lets the I-side access overlap the data miss even when
    // the ROB is full.
    ScriptedTrace s;
    s.add(makeLoad(0x100, r1, 0xA000, noReg), Miss::Data);
    s.add(makeAlu(0x104, r2, r2));
    s.add(makeAlu(0x108, r2, r2));
    s.add(makeAlu(0x10c, r2, r2)); // ROB(4) is now full
    s.add(makeAlu(0x140, r2, r2), Miss::Fetch);
    MlpConfig cfg = MlpConfig::sized(4, IssueConfig::C);
    cfg.fetchBufferSize = 8;
    const auto r = cfg.fetchBufferSize ? s.run(cfg) : core::MlpResult{};
    EXPECT_EQ(r.usefulAccesses, 2u);
    EXPECT_EQ(r.epochs, 1u); // the Imiss overlapped the Dmiss
    EXPECT_EQ(r.inhibitors[Inhibitor::ImissEnd], 1u);
}

TEST(EpochEngine, ImissStartEpochHasOneAccess)
{
    ScriptedTrace s;
    s.add(makeAlu(0x100, r1), Miss::Fetch);
    s.add(makeLoad(0x104, r2, 0xA000, noReg), Miss::Data);
    const auto r = s.run(MlpConfig::sized(64, IssueConfig::C));
    // Epoch 1: the instruction fetch alone (fetch is blocking);
    // epoch 2: the load.
    EXPECT_EQ(r.epochs, 2u);
    EXPECT_EQ(r.inhibitors[Inhibitor::ImissStart], 1u);
    EXPECT_EQ(r.accessesPerEpoch.buckets().at(1), 2u);
}

TEST(EpochEngine, ResolvableMispredictDoesNotTerminate)
{
    ScriptedTrace s;
    s.add(makeLoad(0x100, r1, 0xA000, noReg), Miss::Data);
    // Mispredicted branch whose operand is on-chip-ready: resolves
    // within the epoch at no modelled cost.
    s.add(makeAlu(0x104, r2));
    s.add(makeBranch(0x108, 0x200, true, r2), Miss::None, true);
    s.add(makeLoad(0x10c, r3, 0xB000, noReg), Miss::Data);
    const auto r = s.run(MlpConfig::sized(64, IssueConfig::C));
    EXPECT_EQ(r.epochs, 1u);
    EXPECT_DOUBLE_EQ(r.mlp(), 2.0);
    EXPECT_EQ(r.inhibitors[Inhibitor::MispredBr], 0u);
}

TEST(EpochEngine, SerializingAfterQuiescenceIsFree)
{
    ScriptedTrace s;
    s.add(makeAlu(0x100, r1));
    s.add(makeSerializing(0x104)); // nothing outstanding: free
    s.add(makeLoad(0x108, r2, 0xA000, noReg), Miss::Data);
    s.add(makeLoad(0x10c, r3, 0xB000, noReg), Miss::Data);
    const auto r = s.run(MlpConfig::sized(64, IssueConfig::C));
    EXPECT_EQ(r.epochs, 1u);
    EXPECT_DOUBLE_EQ(r.mlp(), 2.0);
}

TEST(EpochEngine, InstructionsBehindSerializerWaitForDrain)
{
    ScriptedTrace s;
    s.add(makeLoad(0x100, r1, 0xA000, noReg), Miss::Data);
    s.add(makeSerializing(0x104));
    s.add(makeLoad(0x108, r2, 0xB000, noReg), Miss::Data);
    s.add(makeLoad(0x10c, r3, 0xC000, noReg), Miss::Data);
    const auto r = s.run(MlpConfig::sized(64, IssueConfig::C));
    EXPECT_EQ(r.epochs, 2u);
    EXPECT_EQ(r.inhibitors[Inhibitor::Serialize], 1u);
    // After the drain, the two loads behind the membar overlap.
    EXPECT_EQ(r.accessesPerEpoch.buckets().at(2), 1u);
}

TEST(EpochEngine, AtomicWithMissingLineIsAnAccess)
{
    ScriptedTrace s;
    s.add(makeSerializing(0x100, 0xA000), Miss::Data);
    s.add(makeLoad(0x104, r2, 0xB000, noReg), Miss::Data);
    const auto r = s.run(MlpConfig::sized(64, IssueConfig::C));
    EXPECT_EQ(r.usefulAccesses, 2u);
    // The atomic serializes: the load cannot overlap it.
    EXPECT_EQ(r.epochs, 2u);
}

TEST(EpochEngine, StoreForwardingCreatesMemoryDependence)
{
    ScriptedTrace s;
    s.add(makeLoad(0x100, r1, 0xA000, noReg), Miss::Data);
    s.add(makeStore(0x104, 0xB000, /*data=*/r1, /*addr=*/noReg));
    // This load reads the stored location: it must wait for the store
    // data (which waits for the miss), even under config C.
    s.add(makeLoad(0x108, r2, 0xB000, noReg));
    s.add(makeLoad(0x10c, r3, 0xC000, r2), Miss::Data);
    const auto r = s.run(MlpConfig::sized(64, IssueConfig::C));
    EXPECT_EQ(r.epochs, 2u);
    EXPECT_DOUBLE_EQ(r.mlp(), 1.0);
}

TEST(EpochEngine, SameRegisterInTwoSourceSlotsWakesOnce)
{
    // The ALU reads r1 in both source slots, so the missing load feeds
    // it twice. Epoch 1: that load and the independent miss. Epoch 2:
    // r1 arrives, the ALU executes, and the miss behind it issues.
    ScriptedTrace s;
    s.add(makeLoad(0x100, r1, 0xA000, noReg), Miss::Data);
    s.add(makeAlu(0x104, r2, r1, r1));
    s.add(makeLoad(0x108, r3, 0xB000, r2), Miss::Data);
    s.add(makeLoad(0x10c, r4, 0xC000, noReg), Miss::Data);
    const auto r = s.run(MlpConfig::sized(64, IssueConfig::C));
    EXPECT_EQ(r.epochs, 2u);
    EXPECT_EQ(r.usefulAccesses, 3u);
    EXPECT_EQ(r.accessesPerEpoch.buckets().at(1), 1u);
    EXPECT_EQ(r.accessesPerEpoch.buckets().at(2), 1u);
    EXPECT_DOUBLE_EQ(r.mlp(), 1.5);
}

TEST(EpochEngine, ConfigBStoreWithAddressAndDataFromOneMiss)
{
    // The store's address and data both come from the missing load.
    // Under config B the younger independent miss waits for that
    // address: epoch 1 holds the first miss (charged to Dep store),
    // epoch 2 the second once r1 resolves the store.
    ScriptedTrace s;
    s.add(makeLoad(0x100, r1, 0xA000, noReg), Miss::Data);
    s.add(makeStore(0x104, 0xB000, /*data=*/r1, /*addr=*/r1));
    s.add(makeLoad(0x108, r2, 0xC000, noReg), Miss::Data);
    const auto rb = s.run(MlpConfig::sized(64, IssueConfig::B));
    EXPECT_EQ(rb.epochs, 2u);
    EXPECT_EQ(rb.inhibitors[Inhibitor::DepStore], 1u);
    EXPECT_EQ(rb.inhibitors[Inhibitor::EndOfTrace], 1u);
    EXPECT_DOUBLE_EQ(rb.mlp(), 1.0);

    // Config C lets the two misses overlap.
    const auto rc = s.run(MlpConfig::sized(64, IssueConfig::C));
    EXPECT_EQ(rc.epochs, 1u);
    EXPECT_DOUBLE_EQ(rc.mlp(), 2.0);
}

TEST(EpochEngine, ConfigBStoreDataArrivingFirstLeavesItsAddressOpen)
{
    // The store's data (r1) arrives at the end of epoch 1, its address
    // (r3, two misses deep) at the end of epoch 2. Only the address
    // may release the younger independent miss under config B, so
    // that miss waits for epoch 3.
    ScriptedTrace s;
    s.add(makeLoad(0x100, r1, 0xA000, noReg), Miss::Data);
    s.add(makeLoad(0x104, r2, 0xB000, noReg), Miss::Data);
    s.add(makeLoad(0x108, r3, 0xC000, r2), Miss::Data);
    s.add(makeStore(0x10c, 0xD000, /*data=*/r1, /*addr=*/r3));
    s.add(makeLoad(0x110, r4, 0xE000, noReg), Miss::Data);
    const auto r = s.run(MlpConfig::sized(64, IssueConfig::B));
    EXPECT_EQ(r.epochs, 3u);
    EXPECT_EQ(r.usefulAccesses, 4u);
    EXPECT_EQ(r.accessesPerEpoch.buckets().at(1), 2u);
    EXPECT_EQ(r.accessesPerEpoch.buckets().at(2), 1u);
}

TEST(EpochEngine, LoadForwardsFromTheAtomicThatProducedItsAddress)
{
    // Under config E the atomic does not serialize, so the load behind
    // it dispatches while it is in flight: the atomic is both the
    // load's address producer (r1) and the store it forwards from
    // (0xA000). Epoch 1: the atomic's miss and the independent one.
    // Epoch 2: the load executes on-chip and the miss behind it
    // issues.
    ScriptedTrace s;
    auto atomic = makeSerializing(0x100, 0xA000);
    atomic.dst = r1;
    s.add(atomic, Miss::Data);
    s.add(makeLoad(0x104, r2, 0xA000, r1));
    s.add(makeLoad(0x108, r3, 0xB000, r2), Miss::Data);
    s.add(makeLoad(0x10c, r4, 0xC000, noReg), Miss::Data);
    const auto r = s.run(MlpConfig::sized(64, IssueConfig::E));
    EXPECT_EQ(r.epochs, 2u);
    EXPECT_EQ(r.usefulAccesses, 3u);
    EXPECT_EQ(r.accessesPerEpoch.buckets().at(1), 1u);
    EXPECT_EQ(r.accessesPerEpoch.buckets().at(2), 1u);
    EXPECT_DOUBLE_EQ(r.mlp(), 1.5);
}

TEST(EpochEngine, DepStoreClassification)
{
    // Config B: a store with an unresolved (miss-dependent) address
    // blocks a ready load -> the epoch is charged to "Dep store".
    ScriptedTrace s;
    s.add(makeLoad(0x100, r1, 0xA000, noReg), Miss::Data);
    s.add(makeAlu(0x104, r2, r1));
    s.add(makeStore(0x108, 0xB000, /*data=*/r3, /*addr=*/r2));
    s.add(makeLoad(0x10c, r4, 0xC000, noReg), Miss::Data);
    const auto rb = s.run(MlpConfig::sized(64, IssueConfig::B));
    EXPECT_EQ(rb.epochs, 2u);
    EXPECT_EQ(rb.inhibitors[Inhibitor::DepStore], 1u);

    const auto rc = s.run(MlpConfig::sized(64, IssueConfig::C));
    EXPECT_EQ(rc.epochs, 1u);
    EXPECT_DOUBLE_EQ(rc.mlp(), 2.0);
}

TEST(EpochEngine, MissingLoadClassificationUnderConfigA)
{
    ScriptedTrace s;
    s.add(makeLoad(0x100, r1, 0xA000, noReg), Miss::Data);
    s.add(makeLoad(0x104, r2, 0xB000, r1)); // dependent load (hits)
    s.add(makeLoad(0x108, r3, 0xC000, noReg), Miss::Data);
    const auto ra = s.run(MlpConfig::sized(64, IssueConfig::A));
    EXPECT_EQ(ra.epochs, 2u);
    EXPECT_EQ(ra.inhibitors[Inhibitor::MissingLoad], 1u);

    // Config B lets loads pass loads: both misses overlap.
    const auto rbb = s.run(MlpConfig::sized(64, IssueConfig::B));
    EXPECT_EQ(rbb.epochs, 1u);
}

TEST(EpochEngine, PrefetchesBypassConfigAOrdering)
{
    ScriptedTrace s;
    s.add(makeLoad(0x100, r1, 0xA000, noReg), Miss::Data);
    s.add(makeLoad(0x104, r2, 0xB000, r1)); // blocked dependent load
    s.add(makePrefetch(0x108, 0xC000), Miss::UsefulPrefetch);
    const auto r = s.run(MlpConfig::sized(64, IssueConfig::A));
    // The prefetch is a hint: it overlaps the miss despite in-order
    // load issue.
    EXPECT_EQ(r.epochs, 1u);
    EXPECT_EQ(r.usefulAccesses, 2u);
}

TEST(EpochEngine, EpochHorizonBoundsNonStallingEpochs)
{
    // Useful prefetches never stall, so only the horizon ends the
    // epoch.
    ScriptedTrace s;
    for (unsigned i = 0; i < 64; ++i) {
        s.add(makePrefetch(0x100 + 4 * i, 0xA000 + 0x1000ull * i),
              Miss::UsefulPrefetch);
        s.add(makeAlu(0x100 + 4 * i + 2, r1, r1));
    }
    MlpConfig cfg = MlpConfig::sized(16, IssueConfig::C);
    cfg.epochInstHorizon = 16;
    // The horizon stops *fetch*; instructions already in the fetch
    // buffer and window still execute, so each epoch spans roughly
    // horizon + fetchBuffer + window instructions.
    const auto r = s.run(cfg);
    EXPECT_EQ(r.usefulAccesses, 64u);
    EXPECT_GE(r.epochs, 3u);
    EXPECT_GT(r.inhibitors[Inhibitor::TriggerDone], 0u);

    cfg.epochInstHorizon = 4096; // one giant epoch
    const auto r2 = s.run(cfg);
    EXPECT_EQ(r2.epochs, 1u);
}

TEST(EpochEngine, WarmupEpochsAreExcluded)
{
    auto s = independentMisses(10, 0);
    MlpConfig cfg = MlpConfig::sized(4, IssueConfig::C);
    const auto all = s.run(cfg);
    cfg.warmupInsts = 5;
    const auto tail = s.run(cfg);
    EXPECT_LT(tail.usefulAccesses, all.usefulAccesses);
    EXPECT_LT(tail.epochs, all.epochs);
    EXPECT_EQ(tail.measuredInsts, 5u);
}

TEST(EpochEngine, AccessConservation)
{
    auto s = independentMisses(20, 2);
    for (auto ic : {IssueConfig::A, IssueConfig::C, IssueConfig::E}) {
        for (unsigned w : {4u, 16u, 64u}) {
            const auto r = s.run(MlpConfig::sized(w, ic));
            EXPECT_EQ(r.usefulAccesses, 20u)
                << core::issueConfigName(ic) << w;
        }
    }
}

TEST(EpochEngine, InhibitorsSumToEpochs)
{
    auto s = independentMisses(20, 2);
    const auto r = s.run(MlpConfig::sized(8, IssueConfig::C));
    EXPECT_EQ(r.inhibitors.total(), r.epochs);
}

TEST(EpochEngine, DeterministicAcrossRuns)
{
    auto s = independentMisses(30, 1);
    const auto a = s.run(MlpConfig::sized(16, IssueConfig::C));
    const auto b = s.run(MlpConfig::sized(16, IssueConfig::C));
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.usefulAccesses, b.usefulAccesses);
    EXPECT_DOUBLE_EQ(a.mlp(), b.mlp());
}

// ---------------------------------------------------------------------
// Quiet-stretch boundaries: between off-chip events the engine runs
// as a conveyor (each loop iteration retires the previous batch,
// dispatches min(buffered, ROB, window) and refills the fetch
// buffer). These scripts put an event on each edge of that conveyor.

TEST(EpochEngine, MissThatStartsADispatchBatch)
{
    // ROB/window 4: after 8 quiet instructions the batches are
    // [0,4), [4,8), [8,12), so the load at 8 heads its batch and the
    // load at 10 joins it in the same epoch.
    ScriptedTrace s;
    addQuiet(s, 8);
    s.add(makeLoad(0x200, r2, 0xA000, noReg), Miss::Data);
    s.add(makeAlu(0x204, r3, r3));
    s.add(makeLoad(0x208, r4, 0xB000, noReg), Miss::Data);
    s.add(makeAlu(0x20c, r5, r5));
    addQuiet(s, 4, 0x300);
    for (unsigned fb : {4u, 8u}) {
        MlpConfig cfg = MlpConfig::sized(4, IssueConfig::C);
        cfg.fetchBufferSize = fb;
        const auto r = s.run(cfg);
        EXPECT_EQ(r.epochs, 1u) << "fb " << fb;
        EXPECT_EQ(r.usefulAccesses, 2u) << "fb " << fb;
        // The full ROB ends the epoch with the last four buffered.
        EXPECT_EQ(r.inhibitors[Inhibitor::Maxwin], 1u) << "fb " << fb;
        EXPECT_EQ(r.accessesPerEpoch.buckets().at(2), 1u) << "fb " << fb;
    }

    // One-entry machine: every instruction is its own batch, so each
    // load is alone in its epoch.
    MlpConfig tiny = MlpConfig::sized(1, IssueConfig::C);
    tiny.fetchBufferSize = 1;
    const auto r = s.run(tiny);
    EXPECT_EQ(r.epochs, 2u);
    EXPECT_EQ(r.usefulAccesses, 2u);
    EXPECT_EQ(r.inhibitors[Inhibitor::Maxwin], 2u);
}

TEST(EpochEngine, MispredictedBranchEndsAQuietFetchGroup)
{
    // Fetch stops after the mispredicted branch at 2; it resolves in
    // the quiet stretch, so the two loads behind it still overlap.
    ScriptedTrace s;
    s.add(makeAlu(0x100, r1));
    s.add(makeAlu(0x104, r2));
    s.add(makeBranch(0x108, 0x200, true, r1), Miss::None, true);
    s.add(makeLoad(0x200, r3, 0xA000, noReg), Miss::Data);
    s.add(makeLoad(0x204, r4, 0xB000, noReg), Miss::Data);
    s.add(makeAlu(0x208, r5));
    for (auto ic : {IssueConfig::C, IssueConfig::D}) {
        MlpConfig cfg = MlpConfig::sized(4, ic);
        cfg.fetchBufferSize = 4;
        const auto r = s.run(cfg);
        EXPECT_EQ(r.epochs, 1u);
        EXPECT_EQ(r.usefulAccesses, 2u);
        EXPECT_EQ(r.inhibitors[Inhibitor::MispredBr], 0u);
        EXPECT_EQ(r.inhibitors[Inhibitor::EndOfTrace], 1u);
    }

    // The same stop after quiet work, but the branch depends on a
    // miss: it cannot resolve, so the first epoch ends on it and the
    // load behind it gets an epoch of its own.
    ScriptedTrace u;
    u.add(makeLoad(0x100, r1, 0xA000, noReg), Miss::Data);
    addQuiet(u, 3);
    u.add(makeBranch(0x110, 0x200, true, r1), Miss::None, true);
    u.add(makeLoad(0x200, r5, 0xB000, noReg), Miss::Data);
    const auto r = u.run(MlpConfig::sized(64, IssueConfig::C));
    EXPECT_EQ(r.epochs, 2u);
    EXPECT_EQ(r.inhibitors[Inhibitor::MispredBr], 1u);
    EXPECT_EQ(r.inhibitors[Inhibitor::EndOfTrace], 1u);
}

TEST(EpochEngine, SerializerEndsAQuietFetchGroup)
{
    // A serializer fetched last in a quiet group drains for free.
    ScriptedTrace s;
    s.add(makeAlu(0x100, r1));
    s.add(makeAlu(0x104, r2, r1));
    s.add(makeSerializing(0x108));
    s.add(makeLoad(0x10c, r3, 0xA000, noReg), Miss::Data);
    s.add(makeLoad(0x110, r4, 0xB000, noReg), Miss::Data);
    for (auto ic : {IssueConfig::A, IssueConfig::C, IssueConfig::E}) {
        const auto r = s.run(MlpConfig::sized(64, ic));
        EXPECT_EQ(r.epochs, 1u) << core::issueConfigName(ic);
        EXPECT_EQ(r.usefulAccesses, 2u) << core::issueConfigName(ic);
        EXPECT_EQ(r.inhibitors[Inhibitor::Serialize], 0u);
        EXPECT_EQ(r.inhibitors[Inhibitor::EndOfTrace], 1u);
    }

    // Behind an outstanding miss the serializer ends the epoch; the
    // quiet stretch after the drain leads to two overlapping loads.
    ScriptedTrace d;
    d.add(makeLoad(0x100, r1, 0xA000, noReg), Miss::Data);
    d.add(makeSerializing(0x104));
    addQuiet(d, 20);
    d.add(makeLoad(0x200, r3, 0xB000, noReg), Miss::Data);
    d.add(makeLoad(0x204, r4, 0xC000, noReg), Miss::Data);
    const auto r = d.run(MlpConfig::sized(8, IssueConfig::C));
    EXPECT_EQ(r.epochs, 2u);
    EXPECT_EQ(r.inhibitors[Inhibitor::Serialize], 1u);
    EXPECT_EQ(r.inhibitors[Inhibitor::EndOfTrace], 1u);
    EXPECT_EQ(r.accessesPerEpoch.buckets().at(1), 1u);
    EXPECT_EQ(r.accessesPerEpoch.buckets().at(2), 1u);
}

TEST(EpochEngine, ImissEndsAQuietFetchGroup)
{
    // Fetch stops before the instruction miss at 3 and waits for the
    // quiet back end to drain, so the miss starts an epoch alone; the
    // load behind it then forms the second epoch.
    ScriptedTrace s;
    addQuiet(s, 3);
    s.add(makeAlu(0x140, r2), Miss::Fetch);
    s.add(makeLoad(0x144, r3, 0xA000, noReg), Miss::Data);
    for (unsigned fb : {1u, 2u, 3u, 8u}) {
        MlpConfig cfg = MlpConfig::sized(8, IssueConfig::C);
        cfg.fetchBufferSize = fb;
        const auto r = s.run(cfg);
        EXPECT_EQ(r.epochs, 2u) << "fb " << fb;
        EXPECT_EQ(r.imissAccesses, 1u) << "fb " << fb;
        EXPECT_EQ(r.dmissAccesses, 1u) << "fb " << fb;
        EXPECT_EQ(r.inhibitors[Inhibitor::ImissStart], 1u) << "fb " << fb;
        EXPECT_EQ(r.inhibitors[Inhibitor::EndOfTrace], 1u) << "fb " << fb;
    }
}

TEST(EpochEngine, TraceEndsInsideAQuietStretch)
{
    ScriptedTrace s;
    s.add(makeLoad(0x100, r1, 0xA000, noReg), Miss::Data);
    s.add(makeLoad(0x104, r2, 0xB000, noReg), Miss::Data);
    addQuiet(s, 100);
    for (unsigned fb : {1u, 4u, 32u}) {
        MlpConfig cfg = MlpConfig::sized(16, IssueConfig::C);
        cfg.fetchBufferSize = fb;
        const auto r = s.run(cfg);
        EXPECT_EQ(r.epochs, 1u) << "fb " << fb;
        EXPECT_EQ(r.usefulAccesses, 2u) << "fb " << fb;
        EXPECT_EQ(r.inhibitors[Inhibitor::Maxwin], 1u) << "fb " << fb;
        EXPECT_EQ(r.measuredInsts, 102u) << "fb " << fb;
    }

    // No event at all, and traces whose last instruction stops fetch.
    ScriptedTrace quiet;
    addQuiet(quiet, 50);
    ScriptedTrace branch_last;
    addQuiet(branch_last, 20);
    branch_last.add(makeBranch(0x200, 0x100, true, r6), Miss::None, true);
    ScriptedTrace serial_last;
    addQuiet(serial_last, 20);
    serial_last.add(makeSerializing(0x200));
    for (ScriptedTrace *t : {&quiet, &branch_last, &serial_last}) {
        for (unsigned w : {1u, 16u}) {
            const auto r = t->run(MlpConfig::sized(w, IssueConfig::C));
            EXPECT_EQ(r.epochs, 0u);
            EXPECT_EQ(r.inhibitors.total(), 0u);
            EXPECT_EQ(r.measuredInsts, t->trace().size());
        }
    }
}

TEST(EpochEngine, WarmupBoundaryInsideAQuietStretch)
{
    // Epoch triggers at 0 and 41 with 40 quiet instructions between.
    ScriptedTrace s;
    s.add(makeLoad(0x100, r1, 0xA000, noReg), Miss::Data);
    addQuiet(s, 40);
    s.add(makeLoad(0x200, r2, 0xB000, noReg), Miss::Data);
    addQuiet(s, 3, 0x300);
    MlpConfig cfg = MlpConfig::sized(8, IssueConfig::C);

    const auto all = s.run(cfg);
    EXPECT_EQ(all.epochs, 2u);
    EXPECT_EQ(all.inhibitors[Inhibitor::Maxwin], 1u);
    EXPECT_EQ(all.inhibitors[Inhibitor::EndOfTrace], 1u);

    for (uint64_t warmup : {20u, 41u}) {
        cfg.warmupInsts = warmup;
        const auto r = s.run(cfg);
        EXPECT_EQ(r.epochs, 1u) << "warm-up " << warmup;
        EXPECT_EQ(r.usefulAccesses, 1u) << "warm-up " << warmup;
        EXPECT_EQ(r.inhibitors[Inhibitor::EndOfTrace], 1u)
            << "warm-up " << warmup;
        EXPECT_EQ(r.measuredInsts, 45u - warmup);
    }

    cfg.warmupInsts = 42; // the second trigger is warm-up too
    const auto none = s.run(cfg);
    EXPECT_EQ(none.epochs, 0u);
    EXPECT_EQ(none.measuredInsts, 3u);
}

TEST(EpochEngine, StreamedQuietStretchMatchesMaterialised)
{
    // Four epochs of two overlapping loads, each followed by a quiet
    // stretch longer than the ROB and than runahead's reach (2048
    // instructions), streamed in 8-instruction
    // chunks: the result must match the materialised run, and the
    // engine must keep releasing chunks while it crosses a stretch.
    ScriptedTrace s;
    for (unsigned g = 0; g < 4; ++g) {
        const uint64_t pc = 0x10000 * (g + 1);
        s.add(makeLoad(pc, r1, 0xA000 + 0x1000ull * g, noReg), Miss::Data);
        s.add(makeLoad(pc + 4, r2, 0xB000 + 0x1000ull * g, noReg),
              Miss::Data);
        addQuiet(s, 2500, pc + 8);
    }
    MlpConfig ra = MlpConfig::runahead();
    ra.fetchBufferSize = 4;
    for (MlpConfig cfg : {MlpConfig::sized(16, IssueConfig::C),
                          MlpConfig::sized(64, IssueConfig::A), ra}) {
        const auto materialised = s.run(cfg);
        EXPECT_EQ(materialised.epochs, 4u) << cfg.label();
        EXPECT_EQ(materialised.usefulAccesses, 8u) << cfg.label();
        if (cfg.mode != core::CoreMode::Runahead) {
            EXPECT_EQ(materialised.inhibitors[Inhibitor::Maxwin], 4u)
                << cfg.label();
        }

        SmallChunkSource small(s.trace(), 8);
        core::WorkloadContext ctx = s.context();
        ctx.source = &small;
        const auto streamed = core::runMlp(cfg, ctx);
        EXPECT_EQ(streamed.epochs, materialised.epochs) << cfg.label();
        EXPECT_EQ(streamed.usefulAccesses, materialised.usefulAccesses);
        for (size_t i = 0; i < core::numInhibitors; ++i) {
            EXPECT_EQ(streamed.inhibitors.count[i],
                      materialised.inhibitors.count[i])
                << cfg.label() << " inhibitor " << i;
        }
        // The live span is the fetch buffer plus the window: a handful
        // of 8-instruction chunks, never the 1250 the trace spans.
        EXPECT_LE(small.maxLiveChunks(), 16u) << cfg.label();
    }
}

TEST(EpochEngineDeath, RejectsInOrderModes)
{
    ScriptedTrace s;
    s.add(makeAlu(0x100, r1));
    const auto ctx = s.context();
    core::MlpConfig cfg;
    cfg.mode = core::CoreMode::InOrderStallOnMiss;
    EXPECT_DEATH({ core::EpochEngine engine(cfg, ctx); }, "OoO");
}

TEST(EpochEngineDeath, RejectsZeroSizedWindows)
{
    ScriptedTrace s;
    s.add(makeAlu(0x100, r1));
    const auto ctx = s.context();
    core::MlpConfig cfg;
    cfg.robSize = 0;
    EXPECT_DEATH({ core::EpochEngine engine(cfg, ctx); }, "non-empty");
}

} // namespace mlpsim::test
