/**
 * @file
 * Replayable streamed generation: a ChunkSource over a generator
 * factory. Every stream is a generation: a fresh generator from the
 * factory, run on a producer thread that pushes fixed-size SoA chunks
 * through a bounded ChunkRing.
 *
 * This is how the streaming pipeline fuses generation into
 * consumption without ever materialising the trace: each pass that
 * needs the instruction stream opens a stream, and the factory builds
 * a generator at the same seed — same seed, same chunk sequence, which
 * is the replay-determinism contract consumers rely on. The ring's
 * backpressure bounds the footprint to a handful of chunks no matter
 * how long the trace is.
 *
 * open() and openFanout() share one path: a generation has one
 * producer thread, one ring and N consumer cursors. open() is the
 * one-consumer case; openFanout() lets every engine of a fan-out group
 * read the same generation instead of re-running the generator N
 * times. A generation owns its generator, so streams and fan-outs may
 * outlive the source. Teardown needs no cross-thread cancellation
 * token: destroying a stream detaches its ring consumer, the
 * producer's next push() returns false once no consumers remain, and
 * the thread exits and is joined by the generation's last owner.
 *
 * Chunk storage is recycled: the producer takes its chunks from a
 * process-wide, bounded free list (recycledChunk()), and a chunk goes
 * back to the list when its last reader drops it — a consumer done
 * with it, or a materialised TraceBuffer that kept it (adopt()) being
 * destroyed. A reused chunk keeps its old column bytes past `count`,
 * so readers stop at `count`.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "trace/trace_chunk.hh"
#include "trace/trace_source.hh"

namespace mlpsim::trace {

/** Most idle chunks the process-wide free list keeps for reuse. */
constexpr size_t maxRecycledChunks = 16;

/**
 * A generator chunk of capacity @p cap with `base` @p base and
 * `count` 0, taken from the process-wide free list when it holds one
 * of that capacity and freshly allocated otherwise. Reused columns are
 * not cleared. The last shared_ptr to the chunk returns it to the list;
 * a list already holding maxRecycledChunks frees its oldest entry.
 *
 * Every chunk that leaves the list has no reader left, so a chunk a
 * consumer still holds is never handed out again. Recycling keeps a
 * generation's storage in the few chunks the list already owns, so
 * short-lived producer threads stop scattering freed columns over
 * malloc arenas.
 */
std::shared_ptr<TraceChunk> recycledChunk(uint64_t base, uint32_t cap);

/** Chunks idle in the free list now. */
size_t recycledChunksIdle();

/** Chunk-source over a replayable generator factory. */
class GeneratedChunkSource : public ChunkSource
{
  public:
    /** Builds a generator; every call must yield the same stream. */
    using SourceFactory = std::function<std::unique_ptr<TraceSource>()>;

    /**
     * @param stream_name Trace name (for logs and metrics labels).
     * @param limit Instructions per stream; every open() yields
     *        exactly this many (the factory's source must not run dry
     *        earlier — generators here are infinite).
     * @param source_factory Called once per generation.
     */
    GeneratedChunkSource(std::string stream_name, uint64_t limit,
                         SourceFactory source_factory,
                         uint32_t chunk_capacity = defaultChunkCapacity);

    uint64_t size() const override { return limit; }
    std::string name() const override { return label; }

    /** A generation with one consumer. */
    std::unique_ptr<ChunkStream> open() const override;

    /**
     * One generation broadcast to @p consumers cursors over a shared
     * ring. All slots must be drained concurrently (see StreamFanout).
     * @p ring_chunks of 0 uses the bound open() uses, 4 chunks.
     */
    std::unique_ptr<StreamFanout>
    openFanout(size_t consumers, size_t ring_chunks = 0) const override;

    uint32_t chunkCapacity() const { return chunkCap; }

  private:
    std::string label;
    uint64_t limit;
    uint32_t chunkCap;
    SourceFactory factory;
};

} // namespace mlpsim::trace
