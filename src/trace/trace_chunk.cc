#include "trace_chunk.hh"

#include <cassert>

namespace mlpsim::trace {

TraceChunk::TraceChunk(uint64_t base_index, uint32_t capacity)
    : base(base_index), cap(capacity)
{
    assert(cap > 0);
    pc.resize(cap);
    effAddr.resize(cap);
    payload.resize(cap);
    meta.resize(cap);
    dst.resize(cap);
    src0.resize(cap);
    src1.resize(cap);
    src2.resize(cap);
}

namespace {

/**
 * Fallback fan-out: each slot is an ordinary independent stream.
 * Used by sources whose open() is cheap (materialised buffers) where
 * sharing a generation buys nothing.
 */
class IndependentFanout : public StreamFanout
{
  public:
    IndependentFanout(const ChunkSource &source, size_t consumer_count)
        : src(source), count(consumer_count)
    {
    }

    std::unique_ptr<ChunkStream>
    stream(size_t index) override
    {
        assert(index < count);
        (void)index;
        return src.open();
    }

    size_t consumers() const override { return count; }

  private:
    const ChunkSource &src;
    size_t count;
};

} // namespace

std::unique_ptr<StreamFanout>
ChunkSource::openFanout(size_t consumers, size_t /* ring_chunks */) const
{
    return std::make_unique<IndependentFanout>(*this, consumers);
}

Instruction
TraceChunk::get(uint32_t i) const
{
    assert(i < count);
    Instruction inst;
    inst.pc = pc[i];
    inst.effAddr = effAddr[i];
    inst.setRawPayload(payload[i]);
    inst.setRawMeta(meta[i]);
    inst.dst = dst[i];
    inst.src[0] = src0[i];
    inst.src[1] = src1[i];
    inst.src[2] = src2[i];
    return inst;
}

} // namespace mlpsim::trace
