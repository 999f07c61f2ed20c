/**
 * @file
 * In-memory trace container, chunk-native.
 *
 * TraceBuffer owns a sequence of structure-of-arrays TraceChunks
 * (trace_chunk.hh) and hands out replayable views. Benches that
 * materialise do so once per workload and then replay the buffer
 * across every processor configuration, which keeps cache warm-up and
 * branch-predictor state exactly identical between configurations
 * (the paper replays the same 150M-instruction trace the same way).
 *
 * A TraceBuffer is a ChunkSource (trace_chunk.hh) like any streamed
 * trace: open() replays its chunks, so the annotate pass and the
 * simulators read a materialised and a streamed trace through the
 * same handle and the two modes cannot diverge. materialized()
 * returns the buffer itself, which lets readers skip the stream: all
 * chunks except the last are full, so random access is one divide
 * away: at(i) = chunk(i / cap).get(i % cap).
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace_chunk.hh"
#include "trace/trace_source.hh"

namespace mlpsim::trace {

/** Owning, random-access instruction trace (chunked SoA storage). */
class TraceBuffer : public ChunkSource
{
  public:
    TraceBuffer() = default;
    explicit TraceBuffer(std::string trace_name)
        : label(std::move(trace_name))
    {
    }

    void
    append(const Instruction &inst)
    {
        if (chunkList.empty() || chunkList.back()->full())
            chunkList.push_back(
                std::make_shared<TraceChunk>(n, chunkCapacity));
        chunkList.back()->append(inst);
        ++n;
    }

    /** Drain @p source (up to @p limit instructions) into this buffer. */
    void fill(TraceSource &source, uint64_t limit);

    /**
     * fill(), handing each chunk to @p completed as soon as it holds
     * its last instruction (it is full, or the fill is over), so
     * another thread can read it while later chunks are generated. A
     * handed chunk is never written again: the buffer must be empty or
     * end in a full chunk.
     */
    void fill(TraceSource &source, uint64_t limit,
              const std::function<void(ChunkPtr)> &completed);

    uint64_t size() const override { return n; }
    bool empty() const { return n == 0; }

    /** Instruction @p i, reassembled by value from its chunk. */
    Instruction
    at(size_t i) const
    {
        return chunkList[i / chunkCapacity]->get(
            uint32_t(i % chunkCapacity));
    }

    size_t numChunks() const { return chunkList.size(); }
    const TraceChunk &chunk(size_t ci) const { return *chunkList[ci]; }
    ChunkPtr chunkPtr(size_t ci) const { return chunkList[ci]; }

    /** Chunk granularity of every TraceBuffer. */
    static constexpr uint32_t chunkCapacity = defaultChunkCapacity;

    std::string name() const override { return label; }

    /** A replayable chunk-level view (zero-copy: shares the chunks). */
    std::unique_ptr<ChunkStream> open() const override;

    const TraceBuffer *materialized() const override { return this; }

  private:
    std::vector<std::shared_ptr<TraceChunk>> chunkList;
    size_t n = 0;
    std::string label = "trace";
};

} // namespace mlpsim::trace
