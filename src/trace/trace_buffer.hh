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

#include <cassert>
#include <cstdint>
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
     * Splice a pre-built full-capacity chunk (the v3 trace reader's
     * zero-decode path). The chunk's base is rewritten to this
     * buffer's running instruction index; the previous chunk, if any,
     * must be full.
     */
    void
    appendChunk(std::shared_ptr<TraceChunk> c)
    {
        assert(c->cap == chunkCapacity);
        assert(chunkList.empty() || chunkList.back()->full());
        chunkList.push_back(std::move(c));
        chunkList.back()->base = n;
        n += chunkList.back()->count;
    }

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
    void setName(std::string n_) { label = std::move(n_); }

    /** A replayable streaming view over this buffer. */
    class Cursor : public TraceSource
    {
      public:
        explicit Cursor(const TraceBuffer &b) : buffer(b) {}

        bool
        next(Instruction &inst) override
        {
            if (pos >= buffer.size())
                return false;
            inst = buffer.at(pos++);
            return true;
        }

        void reset() override { pos = 0; }
        std::string name() const override { return buffer.name(); }

      private:
        const TraceBuffer &buffer;
        size_t pos = 0;
    };

    Cursor cursor() const { return Cursor(*this); }

    /** A replayable chunk-level view (zero-copy: shares the chunks). */
    std::unique_ptr<ChunkStream> open() const override;

    const TraceBuffer *materialized() const override { return this; }

  private:
    std::vector<std::shared_ptr<TraceChunk>> chunkList;
    size_t n = 0;
    std::string label = "trace";
};

} // namespace mlpsim::trace
