#include "trace_buffer.hh"

#include <algorithm>

#include "util/cancellation.hh"

namespace mlpsim::trace {

namespace {

/** Replays a buffer's chunks in order, sharing rather than copying. */
class BufferChunks : public ChunkStream
{
  public:
    explicit BufferChunks(const TraceBuffer &b) : buffer(b) {}

    ChunkPtr
    next() override
    {
        if (ci >= buffer.numChunks())
            return nullptr;
        return buffer.chunkPtr(ci++);
    }

  private:
    const TraceBuffer &buffer;
    size_t ci = 0;
};

} // namespace

std::unique_ptr<ChunkStream>
TraceBuffer::open() const
{
    return std::make_unique<BufferChunks>(*this);
}

void
TraceBuffer::fill(TraceSource &source, uint64_t limit)
{
    Instruction inst;
    uint64_t remaining = limit;
    bool more = true;
    while (remaining > 0 && more) {
        // Trace generation is the other long phase of a sweep job, so
        // it polls for cancellation too (once per chunk).
        pollCancellation();
        if (chunkList.empty() || chunkList.back()->full())
            chunkList.push_back(
                std::make_shared<TraceChunk>(n, chunkCapacity));
        ChunkFiller fill(*chunkList.back());
        while (!fill.full() && remaining > 0 &&
               (more = source.next(inst))) {
            fill.append(inst);
            --remaining;
        }
        n += fill.appended();
        fill.publish();
    }
    // An exhausted source can leave a chunk that was opened for it
    // but never received an instruction.
    if (!chunkList.empty() && chunkList.back()->empty())
        chunkList.pop_back();
}

} // namespace mlpsim::trace
