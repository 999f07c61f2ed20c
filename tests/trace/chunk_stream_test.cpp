/**
 * @file
 * Streaming trace-layer tests: SoA chunk round-trips, the bounded
 * SPMC chunk ring and replayable generated chunk sources.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "trace/chunk_ring.hh"
#include "trace/stream_source.hh"
#include "trace/trace_buffer.hh"
#include "trace/trace_source.hh"

namespace mlpsim::test {

using namespace mlpsim::trace;

namespace {

/** Deterministic, infinite synthetic instruction mix: a function of
 *  its seed. */
class SyntheticSource : public TraceSource
{
  public:
    explicit SyntheticSource(uint64_t seed) : state(seed | 1) {}

    bool
    next(Instruction &inst) override
    {
        const uint64_t r = nextRand();
        const uint64_t pc = 0x400000 + (r % 4096) * 4;
        switch (r % 5) {
        case 0:
            inst = makeLoad(pc, uint8_t(r % 32), r * 64, uint8_t(r % 16),
                            r ^ 0x5a5a5a5a);
            break;
        case 1:
            inst = makeStore(pc, r * 64, uint8_t(r % 32), noReg, r);
            break;
        case 2:
            inst = makeBranch(pc, pc + 16, (r >> 7) & 1, uint8_t(r % 32));
            break;
        case 3:
            inst = makeSerializing(pc, (r % 3) ? r * 64 : 0);
            break;
        default:
            inst = makeAlu(pc, uint8_t(r % 32), uint8_t((r >> 5) % 32),
                           uint8_t((r >> 10) % 32));
            break;
        }
        return true;
    }

    std::string name() const override { return "synthetic"; }

  private:
    uint64_t
    nextRand()
    {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 17;
    }

    uint64_t state;
};

void
expectSameInst(const Instruction &a, const Instruction &b)
{
    EXPECT_EQ(a.pc, b.pc);
    EXPECT_EQ(a.effAddr, b.effAddr);
    EXPECT_EQ(a.rawMeta(), b.rawMeta());
    EXPECT_EQ(a.rawPayload(), b.rawPayload());
    EXPECT_EQ(a.dst, b.dst);
    for (unsigned s = 0; s < maxSrcRegs; ++s)
        EXPECT_EQ(a.src[s], b.src[s]);
}

/** A synthetic generated source; each factory call (one per
 *  generation) increments @p factory_calls when given. */
GeneratedChunkSource
syntheticSource(uint64_t limit, uint32_t chunk_cap,
                size_t *factory_calls = nullptr)
{
    return GeneratedChunkSource(
        "synthetic", limit,
        [factory_calls] {
            if (factory_calls)
                ++*factory_calls;
            return std::make_unique<SyntheticSource>(42);
        },
        chunk_cap);
}

/** Drain one stream into a flat instruction vector. */
std::vector<Instruction>
drain(const ChunkSource &source)
{
    std::vector<Instruction> insts;
    auto stream = source.open();
    while (ChunkPtr c = stream->next()) {
        EXPECT_EQ(c->base, insts.size());
        for (uint32_t i = 0; i < c->count; ++i)
            insts.push_back(c->get(i));
    }
    return insts;
}

} // namespace

TEST(TraceChunk, RoundTripsEveryFieldAndHelper)
{
    SyntheticSource src(7);
    TraceChunk chunk(100, 256);
    std::vector<Instruction> ref;
    for (int i = 0; i < 200; ++i) {
        Instruction inst;
        ASSERT_TRUE(src.next(inst));
        chunk.append(inst);
        ref.push_back(inst);
    }
    EXPECT_EQ(chunk.base, 100u);
    EXPECT_EQ(chunk.count, 200u);
    EXPECT_EQ(chunk.end(), 300u);
    EXPECT_FALSE(chunk.full());
    for (uint32_t i = 0; i < chunk.count; ++i) {
        expectSameInst(chunk.get(i), ref[i]);
        // The column helpers must agree with the packed record's own
        // decoders — they share Instruction's bit constants.
        EXPECT_EQ(chunk.cls(i), ref[i].cls());
        EXPECT_EQ(chunk.brKind(i), ref[i].brKind());
        EXPECT_EQ(chunk.taken(i), ref[i].taken());
        EXPECT_EQ(chunk.isBranch(i), ref[i].isBranch());
        EXPECT_EQ(chunk.isSerializing(i), ref[i].isSerializing());
        EXPECT_EQ(chunk.hasDst(i), ref[i].hasDst());
        EXPECT_EQ(chunk.value(i), ref[i].value());
    }
}

TEST(ChunkRing, SpmcDeliversEveryChunkInOrderToEveryConsumer)
{
    constexpr int kChunks = 50;
    ChunkRing ring(2);
    const int c0 = ring.addConsumer();
    const int c1 = ring.addConsumer();

    auto consume = [&ring](int consumer) {
        std::vector<uint64_t> bases;
        while (ChunkPtr c = ring.pop(consumer))
            bases.push_back(c->base);
        return bases;
    };
    std::vector<uint64_t> seen0, seen1;
    std::thread t0([&] { seen0 = consume(c0); });
    std::thread t1([&] { seen1 = consume(c1); });

    for (int i = 0; i < kChunks; ++i) {
        auto chunk = std::make_shared<TraceChunk>(uint64_t(i), 4u);
        ASSERT_TRUE(ring.push(std::move(chunk)));
    }
    ring.close();
    t0.join();
    t1.join();

    ASSERT_EQ(seen0.size(), size_t(kChunks));
    ASSERT_EQ(seen1.size(), size_t(kChunks));
    for (int i = 0; i < kChunks; ++i) {
        EXPECT_EQ(seen0[size_t(i)], uint64_t(i));
        EXPECT_EQ(seen1[size_t(i)], uint64_t(i));
    }
}

TEST(ChunkRing, DetachedConsumersStopTheProducer)
{
    ChunkRing ring(2);
    const int consumer = ring.addConsumer();

    // Consumer takes three chunks then abandons the stream.
    std::thread t([&] {
        for (int i = 0; i < 3; ++i)
            ASSERT_NE(ring.pop(consumer), nullptr);
        ring.detach(consumer);
    });

    // Producer tries to push far more than the ring could ever hold;
    // push() returning false (not a deadlock) is the teardown path.
    int pushed = 0;
    while (pushed < 1000) {
        if (!ring.push(std::make_shared<TraceChunk>(uint64_t(pushed), 4u)))
            break;
        ++pushed;
    }
    t.join();
    EXPECT_LT(pushed, 1000);
}

TEST(GeneratedChunkSource, ShapesChunksToCapacityAndLimit)
{
    const auto source = syntheticSource(1000, 256);
    EXPECT_EQ(source.size(), 1000u);
    EXPECT_EQ(source.chunkCapacity(), 256u);

    auto stream = source.open();
    std::vector<ChunkPtr> chunks;
    while (ChunkPtr c = stream->next())
        chunks.push_back(std::move(c));
    // 1000 = 3 full chunks of 256 + one partial of 232.
    ASSERT_EQ(chunks.size(), 4u);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(chunks[i]->base, i * 256);
        EXPECT_EQ(chunks[i]->count, 256u);
    }
    EXPECT_EQ(chunks[3]->base, 768u);
    EXPECT_EQ(chunks[3]->count, 232u);
}

TEST(GeneratedChunkSource, EveryOpenReplaysTheIdenticalStream)
{
    const auto source = syntheticSource(5000, 512);
    const auto first = drain(source);
    const auto second = drain(source);
    ASSERT_EQ(first.size(), 5000u);
    ASSERT_EQ(second.size(), 5000u);
    for (size_t i = 0; i < first.size(); ++i)
        expectSameInst(first[i], second[i]);
}

TEST(GeneratedChunkSource, StreamMatchesMaterialisedBuffer)
{
    constexpr uint64_t kInsts = 5000;
    SyntheticSource generator(42);
    TraceBuffer buffer("synthetic");
    buffer.fill(generator, kInsts);
    ASSERT_EQ(buffer.size(), kInsts);

    const auto streamed = drain(syntheticSource(kInsts, 512));
    ASSERT_EQ(streamed.size(), kInsts);
    for (uint64_t i = 0; i < kInsts; ++i)
        expectSameInst(streamed[size_t(i)], buffer.at(size_t(i)));
}

TEST(GeneratedChunkSource, MidStreamTeardownJoinsTheProducer)
{
    const auto source = syntheticSource(1u << 20, 1024);
    // Abandon several streams after one chunk each: the destructor
    // must detach and join the producer thread without hanging even
    // though the ring is full and the trace is nowhere near done.
    for (int round = 0; round < 5; ++round) {
        auto stream = source.open();
        ASSERT_NE(stream->next(), nullptr);
    }
}

TEST(ChunkRing, SkewedConsumersAllSeeEveryChunkInOrder)
{
    // One fast and one deliberately slow consumer on a tiny ring: the
    // producer must block (condvar wait, not teardown) until the
    // slowest cursor frees slots, and both cursors still observe the
    // full sequence in order.
    constexpr int kChunks = 120;
    ChunkRing ring(2);
    const int fast = ring.addConsumer();
    const int slow = ring.addConsumer();

    auto consume = [&ring](int consumer, bool throttle) {
        std::vector<uint64_t> bases;
        while (ChunkPtr c = ring.pop(consumer)) {
            bases.push_back(c->base);
            if (throttle && bases.size() % 16 == 0) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
            }
        }
        return bases;
    };
    std::vector<uint64_t> seen_fast, seen_slow;
    std::thread tf([&] { seen_fast = consume(fast, false); });
    std::thread ts([&] { seen_slow = consume(slow, true); });

    for (int i = 0; i < kChunks; ++i)
        ASSERT_TRUE(ring.push(std::make_shared<TraceChunk>(uint64_t(i), 4u)));
    ring.close();
    tf.join();
    ts.join();

    ASSERT_EQ(seen_fast.size(), size_t(kChunks));
    ASSERT_EQ(seen_slow.size(), size_t(kChunks));
    for (int i = 0; i < kChunks; ++i) {
        EXPECT_EQ(seen_fast[size_t(i)], uint64_t(i));
        EXPECT_EQ(seen_slow[size_t(i)], uint64_t(i));
    }
}

TEST(ChunkRing, PushFailsOnceEveryConsumerDetaches)
{
    ChunkRing ring(4);
    // No consumer ever registered: nothing can observe a push.
    EXPECT_FALSE(ring.push(std::make_shared<TraceChunk>(0, 4u)));

    ChunkRing ring2(4);
    const int a = ring2.addConsumer();
    const int b = ring2.addConsumer();
    EXPECT_TRUE(ring2.push(std::make_shared<TraceChunk>(0, 4u)));
    ring2.detach(a);
    EXPECT_TRUE(ring2.push(std::make_shared<TraceChunk>(1, 4u)));
    ring2.detach(b);
    EXPECT_FALSE(ring2.push(std::make_shared<TraceChunk>(2, 4u)));
}

TEST(StreamFanout, BroadcastSlotsReplayOneGenerationIdentically)
{
    constexpr uint64_t kInsts = 20000;
    size_t factory_calls = 0;
    const auto source = syntheticSource(kInsts, 512, &factory_calls);
    const auto reference = drain(source);
    ASSERT_EQ(factory_calls, 1u);

    auto fanout = source.openFanout(3);
    ASSERT_EQ(fanout->consumers(), 3u);
    std::vector<std::unique_ptr<ChunkStream>> slots(3);
    for (size_t i = 0; i < 3; ++i)
        slots[i] = fanout->stream(i);

    // One generation feeds all three cursors, so the slots must be
    // drained concurrently (the bounded ring ties them together).
    std::vector<std::vector<Instruction>> seen(3);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < 3; ++i) {
        threads.emplace_back([&, i] {
            while (ChunkPtr c = slots[i]->next())
                for (uint32_t j = 0; j < c->count; ++j)
                    seen[i].push_back(c->get(j));
        });
    }
    for (std::thread &t : threads)
        t.join();

    // All slots rode ONE generation: one more factory call.
    EXPECT_EQ(factory_calls, 2u);
    for (size_t i = 0; i < 3; ++i) {
        ASSERT_EQ(seen[i].size(), reference.size()) << "slot " << i;
        for (size_t j = 0; j < reference.size(); ++j)
            expectSameInst(seen[i][j], reference[j]);
    }
}

TEST(StreamFanout, AbandonedSlotDoesNotStallSiblings)
{
    const auto source = syntheticSource(1u << 18, 1024);
    auto fanout = source.openFanout(2);
    auto keeper = fanout->stream(0);
    {
        // Claim, take one chunk, abandon: the dropped cursor detaches
        // so the survivor (and the producer) keep flowing.
        auto dropped = fanout->stream(1);
        ASSERT_NE(dropped->next(), nullptr);
    }
    uint64_t drained = 0;
    while (ChunkPtr c = keeper->next())
        drained += c->count;
    EXPECT_EQ(drained, uint64_t(1) << 18);
}

TEST(StreamFanout, UnclaimedSlotsDetachOnDestruction)
{
    const auto source = syntheticSource(1u << 18, 1024);
    auto fanout = source.openFanout(3);
    auto only = fanout->stream(0);
    // Slots 1 and 2 are never claimed. They are still registered
    // consumers (a late claimer must miss nothing), so they hold the
    // bounded ring back and slot 0 can only run ring-capacity chunks
    // ahead. Destroying the fan-out mid-trace must detach the
    // unclaimed slots and join the producer without hanging.
    const ChunkPtr first = only->next();
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->base, 0u);
    only.reset();
    fanout.reset();
}

TEST(StreamFanout, ZeroLengthTraceEndsEverySlotImmediately)
{
    const auto source = syntheticSource(0, 256);
    auto fanout = source.openFanout(2);
    auto s0 = fanout->stream(0);
    auto s1 = fanout->stream(1);
    EXPECT_EQ(s0->next(), nullptr);
    EXPECT_EQ(s1->next(), nullptr);
}

TEST(GeneratedChunkSource, EveryGenerationCallsTheFactoryOnce)
{
    // Replay is by seed: construction builds no generator, and each
    // sequential open builds exactly one fresh one.
    size_t factory_calls = 0;
    const auto source = syntheticSource(5000, 512, &factory_calls);
    EXPECT_EQ(factory_calls, 0u);
    const auto first = drain(source);
    const auto second = drain(source);
    const auto third = drain(source);
    EXPECT_EQ(factory_calls, 3u);
    ASSERT_EQ(third.size(), first.size());
    for (size_t i = 0; i < first.size(); ++i) {
        expectSameInst(second[i], first[i]);
        expectSameInst(third[i], first[i]);
    }
}

TEST(GeneratedChunkSource, StreamsOutliveTheirSource)
{
    // A generation owns its generator, so a stream and a fan-out slot
    // opened from a source keep working after the source is gone.
    constexpr uint64_t kInsts = 5000;
    auto source = std::make_unique<GeneratedChunkSource>(
        syntheticSource(kInsts, 512));
    const auto reference = drain(*source);
    auto stream = source->open();
    auto fanout = source->openFanout(1);
    auto slot = fanout->stream(0);
    source.reset();

    for (ChunkStream *s : {stream.get(), slot.get()}) {
        uint64_t seen = 0;
        while (ChunkPtr c = s->next()) {
            for (uint32_t i = 0; i < c->count; ++i)
                expectSameInst(c->get(i), reference[size_t(seen + i)]);
            seen += c->count;
        }
        EXPECT_EQ(seen, kInsts);
    }
}

TEST(ChunkRecycling, HeldChunkIsNeverHandedOutAgain)
{
    const auto source = syntheticSource(20000, 512);
    ChunkPtr held;
    {
        auto stream = source.open();
        ASSERT_NE(stream->next(), nullptr);
        held = stream->next(); // the second chunk, mid-trace
        ASSERT_NE(held, nullptr);
    }
    const uint64_t base = held->base;
    const uint32_t count = held->count;
    std::vector<Instruction> before;
    for (uint32_t i = 0; i < count; ++i)
        before.push_back(held->get(i));

    // Two more full streams recycle every other chunk many times over;
    // none of them may be the held one.
    for (int round = 0; round < 2; ++round) {
        auto stream = source.open();
        while (ChunkPtr c = stream->next())
            EXPECT_NE(c.get(), held.get()) << "round " << round;
    }
    EXPECT_EQ(held->base, base);
    ASSERT_EQ(held->count, count);
    for (uint32_t i = 0; i < count; ++i)
        expectSameInst(held->get(i), before[i]);
}

TEST(ChunkRecycling, FreeListNeverExceedsItsBound)
{
    // Hold more chunks than the list may keep, then drop them one by
    // one: every return past the bound evicts, so the list ends full
    // and never above it.
    const auto source = syntheticSource(64 * 256, 256);
    std::vector<ChunkPtr> chunks;
    {
        auto stream = source.open();
        while (ChunkPtr c = stream->next()) {
            chunks.push_back(std::move(c));
            EXPECT_LE(recycledChunksIdle(), maxRecycledChunks);
        }
    }
    ASSERT_GT(chunks.size(), maxRecycledChunks);
    while (!chunks.empty()) {
        chunks.pop_back();
        EXPECT_LE(recycledChunksIdle(), maxRecycledChunks);
    }
    EXPECT_EQ(recycledChunksIdle(), maxRecycledChunks);
}

TEST(ChunkRecycling, MixedCapacitiesStayBitIdenticalToMaterialised)
{
    // Interleaved capacities share one free list: a reused chunk must
    // come back at its own capacity, with `count` reset, and the stale
    // columns past `count` must never reach a reader.
    constexpr uint64_t kInsts = 30000;
    SyntheticSource generator(42);
    TraceBuffer buffer("synthetic");
    buffer.fill(generator, kInsts);
    for (int round = 0; round < 2; ++round) {
        for (const uint32_t cap : {7u, 4096u, defaultChunkCapacity}) {
            SCOPED_TRACE("capacity " + std::to_string(cap) + ", round " +
                         std::to_string(round));
            const auto source = syntheticSource(kInsts, cap);
            auto stream = source.open();
            uint64_t seen = 0;
            while (ChunkPtr c = stream->next()) {
                ASSERT_EQ(c->cap, cap);
                ASSERT_EQ(c->base, seen);
                ASSERT_LE(c->count, cap);
                for (uint32_t i = 0; i < c->count; ++i)
                    expectSameInst(c->get(i), buffer.at(size_t(seen + i)));
                seen += c->count;
            }
            EXPECT_EQ(seen, kInsts);
        }
    }
}

} // namespace mlpsim::test
