/**
 * @file
 * Replayable streamed generation: a ChunkSource whose open() spawns a
 * producer thread that runs a fresh generator and pushes fixed-size
 * SoA chunks through a bounded ChunkRing.
 *
 * This is how the streaming pipeline fuses generation into
 * consumption without ever materialising the trace: each pass that
 * needs the instruction stream opens a stream, and the generator is
 * rewound to the same seed — same chunk sequence, which is the
 * replay-determinism contract consumers rely on. The ring's
 * backpressure bounds the footprint to a handful of chunks no matter
 * how long the trace is.
 *
 * openFanout() is the shared-generation path: one producer thread,
 * one ring, N consumer cursors — every engine in a fan-out group
 * reads the same generation instead of re-running the generator N
 * times. Streams and fan-outs must not outlive the source (they
 * return their generator to its pool on destruction).
 *
 * Chunk storage is recycled: produceAll() takes its chunks from a
 * process-wide, bounded free list (recycledChunk()), and a chunk goes
 * back to the list when its last reader drops it. A reused chunk keeps
 * its old column bytes past `count`, so readers stop at `count`.
 *
 * Generators are pooled: construction (and with it any config
 * validation the workload does) happens once, at source construction;
 * subsequent open()s reuse an idle generator via reset(), whose
 * reseed-and-rewind is exactly the replay contract. Teardown needs no
 * cross-thread cancellation token: destroying a stream detaches its
 * ring consumer, the producer's next push() returns false once no
 * consumers remain, and the thread exits and is joined.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "trace/trace_chunk.hh"
#include "trace/trace_source.hh"

namespace mlpsim::trace {

/**
 * Mutex-guarded pool of idle, rewound-on-acquire generators.
 *
 * Hoists generator construction (workload setup, validation) out of
 * the per-pass reopen path: the pool eagerly builds one generator at
 * construction, acquire() prefers reset()ing an idle one over calling
 * the factory, and release() returns a generator for the next pass.
 * built() counts factory invocations — the regression handle proving
 * sequential reopens construct exactly once.
 */
class GeneratorPool
{
  public:
    using SourceFactory = std::function<std::unique_ptr<TraceSource>()>;

    explicit GeneratorPool(SourceFactory source_factory,
                           size_t max_idle = 4);

    /** An idle generator, rewound via reset(); builds one if none idle. */
    std::unique_ptr<TraceSource> acquire();

    /** Return a generator (in any stream position) for reuse. */
    void release(std::unique_ptr<TraceSource> gen);

    /** Total factory invocations so far. */
    size_t built() const;

  private:
    SourceFactory factory;
    const size_t maxIdle;
    mutable std::mutex mutex;
    std::vector<std::unique_ptr<TraceSource>> idle;
    size_t builtCount = 0;
};

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
    using SourceFactory = GeneratorPool::SourceFactory;

    /**
     * Eagerly builds the first generator (hoisting workload
     * construction and validation out of every reopen).
     *
     * @param stream_name Trace name (for logs and metrics labels).
     * @param limit Instructions per stream; every open() yields
     *        exactly this many (the factory's source must not run dry
     *        earlier — generators here are infinite).
     * @param ring_chunks Backpressure bound, in chunks.
     */
    GeneratedChunkSource(std::string stream_name, uint64_t limit,
                         SourceFactory source_factory,
                         uint32_t chunk_capacity = defaultChunkCapacity,
                         size_t ring_chunks = 4);

    uint64_t size() const override { return limit; }
    std::string name() const override { return label; }
    std::unique_ptr<ChunkStream> open() const override;

    /**
     * One generation broadcast to @p consumers cursors over a shared
     * ring. All slots must be drained concurrently (see StreamFanout).
     * @p ring_chunks of 0 uses the source's bound, floored at 4 so a
     * mildly skewed consumer pack doesn't serialise on the producer.
     */
    std::unique_ptr<StreamFanout>
    openFanout(size_t consumers, size_t ring_chunks = 0) const override;

    uint32_t chunkCapacity() const { return chunkCap; }

    /** Factory invocations to date (1 after construction; stays 1
     *  across sequential reopens — the pool reuses via reset()). */
    size_t generatorsBuilt() const { return pool.built(); }

  private:
    std::string label;
    uint64_t limit;
    uint32_t chunkCap;
    size_t ringChunks;
    mutable GeneratorPool pool;
};

} // namespace mlpsim::trace
