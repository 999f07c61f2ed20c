/** @file TraceBuffer semantics: filling, access and chunk replay. */
#include <gtest/gtest.h>

#include "trace/trace_buffer.hh"
#include "workloads/micro.hh"

namespace mlpsim::test {

using namespace mlpsim::trace;

namespace {

/** A generator that runs dry after @p n ALU instructions. */
class FiniteSource : public TraceSource
{
  public:
    explicit FiniteSource(uint64_t n) : left(n) {}

    bool
    next(Instruction &inst) override
    {
        if (left == 0)
            return false;
        --left;
        inst = makeAlu(0x100, 1);
        return true;
    }

    std::string name() const override { return "finite"; }

  private:
    uint64_t left;
};

} // namespace

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

TEST(TraceBuffer, OpenReplaysFromTheStart)
{
    TraceBuffer buf;
    for (int i = 0; i < 5; ++i)
        buf.append(makeAlu(0x100 + 4u * unsigned(i), uint8_t(i)));
    for (int pass = 0; pass < 2; ++pass) {
        auto stream = buf.open();
        const ChunkPtr chunk = stream->next();
        ASSERT_NE(chunk, nullptr);
        EXPECT_EQ(chunk->base, 0u);
        ASSERT_EQ(chunk->count, 5u);
        for (uint32_t i = 0; i < chunk->count; ++i)
            EXPECT_EQ(chunk->dst[i], i) << "pass " << pass;
        EXPECT_EQ(stream->next(), nullptr);
    }
}

TEST(TraceBuffer, FillStopsAtSourceEnd)
{
    FiniteSource source(1);
    TraceBuffer target;
    target.fill(source, 100);
    EXPECT_EQ(target.size(), 1u);
    EXPECT_EQ(target.numChunks(), 1u);

    // A source that runs dry exactly at a chunk boundary leaves no
    // empty trailing chunk.
    FiniteSource exact(TraceBuffer::chunkCapacity);
    TraceBuffer full;
    full.fill(exact, 2 * TraceBuffer::chunkCapacity);
    EXPECT_EQ(full.size(), TraceBuffer::chunkCapacity);
    EXPECT_EQ(full.numChunks(), 1u);
}

} // namespace mlpsim::test
