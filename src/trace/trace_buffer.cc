#include "trace_buffer.hh"

#include <algorithm>

#include "util/cancellation.hh"
#include "util/logging.hh"

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
    fill(source, limit, {});
}

void
TraceBuffer::fill(TraceSource &source, uint64_t limit,
                  const std::function<void(ChunkPtr)> &completed)
{
    MLPSIM_ASSERT(!completed || chunkList.empty() || chunkList.back()->full(),
                  "a chunk handed out by fill() would be written again");
    uint64_t remaining = limit;
    while (remaining > 0) {
        // Trace generation is the other long phase of a sweep job, so
        // it polls for cancellation too (once per chunk).
        pollCancellation();
        if (chunkList.empty() || chunkList.back()->full())
            chunkList.push_back(
                std::make_shared<TraceChunk>(n, chunkCapacity));
        ChunkFiller fill(*chunkList.back());
        const uint32_t want =
            uint32_t(std::min<uint64_t>(fill.room(), remaining));
        const uint32_t got = source.nextBatch(fill, want);
        fill.publish();
        n += got;
        remaining -= got;
        // An exhausted source can leave a chunk that was opened for it
        // but never received an instruction.
        if (chunkList.back()->empty()) {
            chunkList.pop_back();
            break;
        }
        if (completed)
            completed(chunkList.back());
        if (got < want)
            break; // the source ran dry
    }
}

} // namespace mlpsim::trace
