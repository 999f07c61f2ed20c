/**
 * @file
 * Structure-of-arrays trace chunk: the unit of the streaming trace
 * pipeline.
 *
 * The packed 32-byte Instruction (instruction.hh) is the right shape
 * for passing one record around, but simulators walk *fields*, not
 * records: the epoch engine touches cls/effAddr/src/dst of every
 * instruction and never looks at pc or payload, so with an
 * array-of-structs layout half of every cache line it streams is dead
 * weight. A TraceChunk transposes a fixed-size run of instructions
 * into one column per field — a meta-byte walk touches 64
 * instructions per cache line instead of 2 — and is the value that
 * flows through the chunk ring from generator threads to consumers.
 *
 * Chunks are immutable once published (the ring hands out
 * shared_ptr<const TraceChunk>); `base` records the global index of
 * the chunk's first instruction so consumers can address annotation
 * planes and inter-chunk state by absolute instruction index.
 */
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/instruction.hh"

namespace mlpsim::trace {

class TraceBuffer;

/**
 * Default instructions per chunk. 16K instructions is ~160KB of
 * columns — big enough that per-chunk overheads (ring handoff, cursor
 * refills) vanish, small enough that a bounded ring of them keeps the
 * streaming pipeline's footprint in the low megabytes.
 */
constexpr uint32_t defaultChunkCapacity = 1u << 14;

/** One fixed-capacity structure-of-arrays run of instructions. */
class TraceChunk
{
  public:
    explicit TraceChunk(uint64_t base_index,
                        uint32_t cap = defaultChunkCapacity);

    /** Global index of instruction 0 of this chunk. */
    uint64_t base = 0;
    /** Instructions currently in the chunk (≤ cap). */
    uint32_t count = 0;
    /** Capacity this chunk was built with. */
    uint32_t cap = defaultChunkCapacity;

    // The columns. u64 columns are 8 instructions per cache line; u8
    // columns are 64. Allocated to `cap` at construction; `count` is
    // the fill level and the only valid-index authority (the file
    // reader shrinks them to `count`, so .size() is not meaningful).
    std::vector<uint64_t> pc;
    std::vector<uint64_t> effAddr;
    std::vector<uint64_t> payload; //!< branch target or load/store value
    std::vector<uint8_t> meta;     //!< packed cls/brKind/taken byte
    std::vector<uint8_t> dst;
    std::vector<uint8_t> src0;
    std::vector<uint8_t> src1;
    std::vector<uint8_t> src2;

    bool full() const { return count == cap; }
    bool empty() const { return count == 0; }
    /** Global index one past the last instruction. */
    uint64_t end() const { return base + count; }

    /** Append one instruction (chunk must not be full). Inline and
     *  bounds-check-free: this sits in the per-instruction path of
     *  both trace generation and the streaming producer thread. */
    void
    append(const Instruction &inst)
    {
        assert(!full());
        pc[count] = inst.pc;
        effAddr[count] = inst.effAddr;
        payload[count] = inst.rawPayload();
        meta[count] = inst.rawMeta();
        dst[count] = inst.dst;
        src0[count] = inst.src[0];
        src1[count] = inst.src[1];
        src2[count] = inst.src[2];
        ++count;
    }

    /** Reassemble instruction @p i (local index) as a packed record. */
    Instruction get(uint32_t i) const;

    // Field reads by local index, decoded with Instruction's own bit
    // constants so the two layouts cannot drift.
    InstClass cls(uint32_t i) const
    {
        return static_cast<InstClass>(meta[i] & Instruction::clsMask);
    }
    BranchKind brKind(uint32_t i) const
    {
        return static_cast<BranchKind>(
            (meta[i] >> Instruction::brKindShift) & Instruction::clsMask);
    }
    bool taken(uint32_t i) const
    {
        return (meta[i] & Instruction::takenBit) != 0;
    }
    bool isBranch(uint32_t i) const { return cls(i) == InstClass::Branch; }
    bool isSerializing(uint32_t i) const
    {
        return cls(i) == InstClass::Serializing;
    }
    bool hasDst(uint32_t i) const { return dst[i] != noReg; }
    /** Loaded/stored value (zero on branches), as Instruction::value. */
    uint64_t value(uint32_t i) const
    {
        return isBranch(i) ? 0 : payload[i];
    }
};

/**
 * Raw-pointer append cursor for the per-instruction producer loops
 * (TraceBuffer::fill, the streaming generator thread). Appending
 * through the chunk reference reloads eight vector data pointers per
 * instruction — the compiler cannot keep them cached across the
 * opaque TraceSource::next() call — so the filler snapshots them
 * once. publish() writes the fill level back; the chunk must not be
 * resized or read below publish() while a filler is live.
 */
class ChunkFiller
{
  public:
    explicit ChunkFiller(TraceChunk &chunk)
        : ck(&chunk), pcp(chunk.pc.data()), eap(chunk.effAddr.data()),
          plp(chunk.payload.data()), mp(chunk.meta.data()),
          dp(chunk.dst.data()), s0p(chunk.src0.data()),
          s1p(chunk.src1.data()), s2p(chunk.src2.data()),
          pos(chunk.count), cap(chunk.cap)
    {
    }

    bool full() const { return pos == cap; }

    void
    append(const Instruction &inst)
    {
        assert(!full());
        pcp[pos] = inst.pc;
        eap[pos] = inst.effAddr;
        plp[pos] = inst.rawPayload();
        mp[pos] = inst.rawMeta();
        dp[pos] = inst.dst;
        s0p[pos] = inst.src[0];
        s1p[pos] = inst.src[1];
        s2p[pos] = inst.src[2];
        ++pos;
    }

    /** Instructions appended since construction. */
    uint32_t appended() const { return pos - ck->count; }

    /** Make the appended instructions visible in the chunk. */
    void publish() { ck->count = pos; }

  private:
    TraceChunk *ck;
    uint64_t *pcp, *eap, *plp;
    uint8_t *mp, *dp, *s0p, *s1p, *s2p;
    uint32_t pos, cap;
};

using ChunkPtr = std::shared_ptr<const TraceChunk>;

/**
 * A forward, single-pass stream of chunks: next() hands out
 * successive chunks until the trace ends (nullptr). Streaming
 * implementations may block in next() waiting for a producer.
 */
class ChunkStream
{
  public:
    virtual ~ChunkStream() = default;
    virtual ChunkPtr next() = 0;
};

/**
 * A registered group of concurrent streams over one trace.
 *
 * openFanout() hands one of these back with `consumers()` slots; each
 * slot is claimed exactly once with stream(i). For broadcast-ring
 * sources every claimed stream is a cursor into ONE generation, so
 * all slots must be consumed concurrently (a slot that is claimed but
 * never drained — or never claimed before the fan-out is destroyed —
 * pins the ring and stalls its siblings). Sources without a shared
 * producer fall back to independent streams, where the slots are
 * fully decoupled.
 */
class StreamFanout
{
  public:
    virtual ~StreamFanout() = default;

    /** Claim consumer slot @p index's stream. Each slot exactly once. */
    virtual std::unique_ptr<ChunkStream> stream(size_t index) = 0;

    /** Number of consumer slots this fan-out was opened with. */
    virtual size_t consumers() const = 0;
};

/**
 * A replayable chunk-stream factory: every open() yields the same
 * chunk sequence from the start (the replay-determinism contract the
 * simulators rely on — each engine run re-streams the trace). This is
 * the one trace handle: a materialised TraceBuffer is a ChunkSource
 * too, and says so through materialized().
 */
class ChunkSource
{
  public:
    virtual ~ChunkSource() = default;
    /** Total instructions a full stream yields. */
    virtual uint64_t size() const = 0;
    virtual std::string name() const = 0;
    virtual std::unique_ptr<ChunkStream> open() const = 0;

    /**
     * Random-access hook: the in-memory buffer holding every chunk of
     * this trace, or null (the default) when the trace only exists as
     * a stream. Readers use it to index chunks directly instead of
     * opening a stream, and to skip generation sharing, which buys
     * nothing for a trace already in memory.
     */
    virtual const TraceBuffer *materialized() const { return nullptr; }

    /**
     * Open @p consumers streams over the same trace as one group.
     * Sources with a per-stream generation cost (GeneratedChunkSource)
     * override this to broadcast ONE generation through a shared ring;
     * the default simply opens independent streams. @p ring_chunks
     * bounds the shared ring (0 = implementation default); it is
     * ignored by the independent fallback.
     */
    virtual std::unique_ptr<StreamFanout>
    openFanout(size_t consumers, size_t ring_chunks = 0) const;
};

} // namespace mlpsim::trace
