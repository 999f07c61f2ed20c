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
    uint64_t remaining = limit;
    while (remaining > 0) {
        // Trace generation is the other long phase of a sweep job, so
        // it polls for cancellation too (once per chunk).
        pollCancellation();
        if (!tail || tail->full())
            openChunk();
        ChunkFiller fill(*tail);
        const uint32_t want =
            uint32_t(std::min<uint64_t>(fill.room(), remaining));
        const uint32_t got = source.nextBatch(fill, want);
        fill.publish();
        n += got;
        remaining -= got;
        // An exhausted source can leave a chunk that was opened for it
        // but never received an instruction.
        if (tail->empty()) {
            chunkList.pop_back();
            tail.reset();
            break;
        }
        if (got < want)
            break; // the source ran dry
    }
}

void
TraceBuffer::adopt(ChunkPtr chunk)
{
    MLPSIM_ASSERT(chunkList.empty() || chunkList.back()->full(),
                  "only the last chunk of a TraceBuffer may be partial");
    MLPSIM_ASSERT(chunk->cap == chunkCapacity && chunk->base == n &&
                      !chunk->empty(),
                  "a kept chunk must be a non-empty TraceBuffer chunk "
                  "starting at the buffer's size");
    n += chunk->count;
    chunkList.push_back(std::move(chunk));
    tail.reset();
}

void
TraceBuffer::openChunk()
{
    MLPSIM_ASSERT(chunkList.empty() || chunkList.back()->full(),
                  "only the last chunk of a TraceBuffer may be partial");
    tail = std::make_shared<TraceChunk>(n, chunkCapacity);
    chunkList.push_back(tail);
}

} // namespace mlpsim::trace
