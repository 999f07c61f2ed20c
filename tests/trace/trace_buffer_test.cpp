/** @file TraceBuffer semantics: filling, access and chunk replay. */
#include <gtest/gtest.h>

#include <iterator>
#include <string>

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

/** Every field, packed words included, is identical. */
bool
sameInst(const Instruction &a, const Instruction &b)
{
    return a.pc == b.pc && a.effAddr == b.effAddr &&
           a.rawMeta() == b.rawMeta() &&
           a.rawPayload() == b.rawPayload() && a.dst == b.dst &&
           a.src[0] == b.src[0] && a.src[1] == b.src[1] &&
           a.src[2] == b.src[2];
}

/** Record @p i of the multi-chunk test trace. */
Instruction
indexedLoad(size_t i)
{
    return makeLoad(0x1000 + 4 * i, uint8_t(i % 32), 0x10000 + 64 * i, 2,
                    i);
}

} // namespace

TEST(TraceBuffer, AppendAndAccess)
{
    // One record of every class, and a branch of a non-default kind:
    // at() reassembles each one field-identically from the columns.
    const Instruction records[] = {
        makeLoad(0x1000, 3, 0xABCD, 2, 99),
        makeStore(0x1004, 0x2000, 5, 4),
        makeBranch(0x1008, 0x3000, true, 6, BranchKind::Call),
        makePrefetch(0x100c, 0x4000, 7),
        makeSerializing(0x1010, 0x5000, 1),
        makeAlu(0x1014, 8, 9, 10),
    };
    TraceBuffer buf("t");
    for (const Instruction &inst : records)
        buf.append(inst);
    ASSERT_EQ(buf.size(), std::size(records));
    for (size_t i = 0; i < buf.size(); ++i)
        EXPECT_TRUE(sameInst(buf.at(i), records[i])) << "record " << i;
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
    // One partial chunk; and two full chunks plus a partial tail,
    // appended record by record across the chunk boundaries.
    constexpr size_t cap = TraceBuffer::chunkCapacity;
    for (const size_t n : {size_t(5), 2 * cap + 1234}) {
        SCOPED_TRACE(std::to_string(n) + " instructions");
        TraceBuffer buf;
        for (size_t i = 0; i < n; ++i)
            buf.append(indexedLoad(i));
        ASSERT_EQ(buf.size(), n);
        ASSERT_EQ(buf.numChunks(), (n + cap - 1) / cap);
        for (size_t ci = 0; ci < buf.numChunks(); ++ci) {
            EXPECT_EQ(buf.chunk(ci).base, ci * cap);
            // at() on both sides of the boundary this chunk starts.
            for (size_t i = ci == 0 ? 0 : ci * cap - 1; i <= ci * cap; ++i)
                EXPECT_TRUE(sameInst(buf.at(i), indexedLoad(i))) << i;
        }
        EXPECT_TRUE(sameInst(buf.at(n - 1), indexedLoad(n - 1)));

        for (int pass = 0; pass < 2; ++pass) {
            SCOPED_TRACE("pass " + std::to_string(pass));
            auto stream = buf.open();
            size_t seen = 0;
            while (const ChunkPtr chunk = stream->next()) {
                ASSERT_EQ(chunk->base, seen);
                for (uint32_t i = 0; i < chunk->count; ++i) {
                    ASSERT_TRUE(
                        sameInst(chunk->get(i), indexedLoad(seen + i)))
                        << seen + i;
                }
                seen += chunk->count;
            }
            EXPECT_EQ(seen, n);
        }
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
