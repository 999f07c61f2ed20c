#include "stream_source.hh"

#include <algorithm>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "trace/chunk_ring.hh"
#include "util/logging.hh"

namespace mlpsim::trace {

namespace {

/** The free list behind recycledChunk(). */
struct ChunkFreeList
{
    std::mutex mutex;
    std::vector<std::unique_ptr<TraceChunk>> idle; //!< oldest first
};

ChunkFreeList &
freeList()
{
    // Never destroyed: a chunk released during static destruction
    // still finds its list.
    static ChunkFreeList *const list = new ChunkFreeList;
    return *list;
}

/** The deleter of every recycledChunk(): back to the list. A full
 *  list drops its oldest chunk, so a process that changes chunk
 *  capacity soon recycles the new one. */
void
recycle(TraceChunk *chunk)
{
    std::unique_ptr<TraceChunk> returned(chunk);
    std::unique_ptr<TraceChunk> evicted; // freed outside the lock
    ChunkFreeList &list = freeList();
    std::lock_guard<std::mutex> lock(list.mutex);
    if (list.idle.size() >= maxRecycledChunks) {
        evicted = std::move(list.idle.front());
        list.idle.erase(list.idle.begin());
    }
    list.idle.push_back(std::move(returned));
}

} // namespace

std::shared_ptr<TraceChunk>
recycledChunk(uint64_t base, uint32_t cap)
{
    std::unique_ptr<TraceChunk> chunk;
    {
        ChunkFreeList &list = freeList();
        std::lock_guard<std::mutex> lock(list.mutex);
        // Newest first: its columns are the likeliest to be cached.
        for (size_t i = list.idle.size(); i-- > 0;) {
            if (list.idle[i]->cap == cap) {
                chunk = std::move(list.idle[i]);
                list.idle.erase(list.idle.begin() + ptrdiff_t(i));
                break;
            }
        }
    }
    if (chunk) {
        chunk->base = base;
        chunk->count = 0;
    } else {
        chunk = std::make_unique<TraceChunk>(base, cap);
    }
    return std::shared_ptr<TraceChunk>(chunk.release(), recycle);
}

size_t
recycledChunksIdle()
{
    ChunkFreeList &list = freeList();
    std::lock_guard<std::mutex> lock(list.mutex);
    return list.idle.size();
}

namespace {

/** Backpressure bound, in chunks, of a generation's ring (unless
 *  openFanout() is given one). */
constexpr size_t generationRingChunks = 4;

/**
 * The producer loop of every generation: run the generator to
 * @p limit instructions, pushing fixed-size chunks.
 * Returns (without close()) if every consumer detached mid-stream.
 */
void
produceAll(ChunkRing &ring, TraceSource &src, uint64_t limit,
           uint32_t chunk_cap)
{
    uint64_t produced = 0;
    while (produced < limit) {
        auto chunk = recycledChunk(produced, chunk_cap);
        ChunkFiller fill(*chunk);
        const uint32_t want =
            uint32_t(std::min<uint64_t>(chunk_cap, limit - produced));
        const uint32_t got = src.nextBatch(fill, want);
        fill.publish();
        produced += got;
        if (got == 0)
            break;
        if (!ring.push(std::move(chunk))) {
            // Every consumer detached: the simulation was destroyed or
            // cancelled; abandon the stream.
            return;
        }
        if (got < want)
            break; // the source ran dry
    }
    ring.close();
}

/**
 * One generation: a fresh generator, the ring it fills and the single
 * producer thread. Held by shared_ptr from the fan-out handle (if any)
 * and every claimed stream; the last owner's destructor joins the
 * producer (all cursors are detached by then, so it exits promptly).
 */
struct FanoutState
{
    FanoutState(std::unique_ptr<TraceSource> source, uint64_t limit,
                uint32_t chunk_cap, size_t ring_chunks, size_t consumers)
        : src(std::move(source)), ring(ring_chunks)
    {
        // Register every cursor before the first push so no consumer
        // can miss a chunk.
        for (size_t i = 0; i < consumers; ++i)
            ring.addConsumer();
        producer = std::thread([this, limit, chunk_cap]() {
            produceAll(ring, *src, limit, chunk_cap);
        });
    }

    FanoutState(const FanoutState &) = delete;
    FanoutState &operator=(const FanoutState &) = delete;

    ~FanoutState()
    {
        if (producer.joinable())
            producer.join();
    }

    std::unique_ptr<TraceSource> src;
    ChunkRing ring;
    std::thread producer;
};

/** One claimed cursor into the shared ring. */
class FanoutStream : public ChunkStream
{
  public:
    FanoutStream(std::shared_ptr<FanoutState> shared, int consumer_id)
        : state(std::move(shared)), consumer(consumer_id)
    {
    }

    ~FanoutStream() override { state->ring.detach(consumer); }

    ChunkPtr next() override { return state->ring.pop(consumer); }

  private:
    std::shared_ptr<FanoutState> state;
    int consumer;
};

/**
 * The fan-out handle: tracks which slots were claimed and, on
 * destruction, detaches the unclaimed ones so they never pin the ring
 * against slots that are still draining.
 */
class GeneratedFanout : public StreamFanout
{
  public:
    GeneratedFanout(std::shared_ptr<FanoutState> shared, size_t consumers)
        : state(std::move(shared)), claimed(consumers, false)
    {
    }

    ~GeneratedFanout() override
    {
        for (size_t i = 0; i < claimed.size(); ++i)
            if (!claimed[i])
                state->ring.detach(int(i));
    }

    std::unique_ptr<ChunkStream>
    stream(size_t index) override
    {
        std::lock_guard<std::mutex> lock(claimMutex);
        MLPSIM_ASSERT(index < claimed.size(), "fan-out slot out of range");
        MLPSIM_ASSERT(!claimed[index], "fan-out slot claimed twice");
        claimed[index] = true;
        return std::make_unique<FanoutStream>(state, int(index));
    }

    size_t consumers() const override { return claimed.size(); }

  private:
    std::shared_ptr<FanoutState> state;
    std::mutex claimMutex;
    std::vector<bool> claimed;
};

} // namespace

GeneratedChunkSource::GeneratedChunkSource(std::string stream_name,
                                           uint64_t limit_insts,
                                           SourceFactory source_factory,
                                           uint32_t chunk_capacity)
    : label(std::move(stream_name)), limit(limit_insts),
      chunkCap(chunk_capacity), factory(std::move(source_factory))
{
    MLPSIM_ASSERT(chunkCap > 0, "chunk capacity must be positive");
    MLPSIM_ASSERT(factory != nullptr, "generated source needs a factory");
}

std::unique_ptr<ChunkStream>
GeneratedChunkSource::open() const
{
    auto state = std::make_shared<FanoutState>(
        factory(), limit, chunkCap, generationRingChunks, 1);
    return std::make_unique<FanoutStream>(std::move(state), 0);
}

std::unique_ptr<StreamFanout>
GeneratedChunkSource::openFanout(size_t consumers, size_t ring_chunks) const
{
    MLPSIM_ASSERT(consumers > 0, "fan-out needs at least one consumer");
    auto state = std::make_shared<FanoutState>(
        factory(), limit, chunkCap,
        ring_chunks ? ring_chunks : generationRingChunks, consumers);
    return std::make_unique<GeneratedFanout>(std::move(state), consumers);
}

} // namespace mlpsim::trace
