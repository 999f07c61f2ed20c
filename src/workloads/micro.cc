#include "micro.hh"

namespace mlpsim::workloads {

namespace {

/** Base of the synthetic data segment used by the micro-workloads. */
constexpr uint64_t dataBase = 0x8000'0000ULL;

/** Scramble a (seed, index) pair into a cache-line-aligned address. */
uint64_t
scatterLine(uint64_t seed, uint64_t index, uint64_t footprint_bytes)
{
    const uint64_t lines = footprint_bytes / 64;
    return dataBase + (splitMix64(index ^ (seed * 0x9e3779b9ULL)) %
                       lines) * 64;
}

} // namespace

// --- PointerChaseWorkload ------------------------------------------

PointerChaseWorkload::PointerChaseWorkload(const Params &params)
    : WorkloadBase("pointer-chase", params.seed), prm(params)
{
}

void
PointerChaseWorkload::generate()
{
    constexpr Reg ptr = 10;
    constexpr Reg scratch = 11;
    const uint64_t addr =
        scatterLine(prm.seed, cursor++, prm.footprintBytes);
    const uint64_t next =
        scatterLine(prm.seed, cursor, prm.footprintBytes);
    // The loaded value is the next pointer: a true dependent chain.
    emitLoad(ptr, addr, ptr, next);
    emitCompute(scratch, prm.padAluPerLoad);
}

// --- IndependentStreamsWorkload ------------------------------------

IndependentStreamsWorkload::IndependentStreamsWorkload(
    const Params &params)
    : WorkloadBase("independent-streams", params.seed), prm(params),
      cursors(params.streams, 0)
{
    MLPSIM_ASSERT(prm.streams >= 1 && prm.streams <= 16,
                  "supported stream counts: 1..16");
}

void
IndependentStreamsWorkload::generate()
{
    constexpr Reg streamRegBase = 20;
    constexpr Reg scratch = 12;
    for (unsigned k = 0; k < prm.streams; ++k) {
        const uint64_t partition =
            dataBase + uint64_t(k + 1) * (4ULL << 30);
        const uint64_t lines = prm.footprintBytes / 64;
        const uint64_t addr =
            partition + (splitMix64(cursors[k]++ ^
                                    (prm.seed * 0x9e3779b9ULL)) %
                         lines) * 64;
        const Reg reg = Reg(streamRegBase + k);
        // Each stream chases within itself (reg -> reg) but streams
        // are mutually independent.
        emitLoad(reg, addr, reg, addr + 64);
        emitCompute(scratch, prm.padAluPerLoad);
    }
}

// --- SerializingStormWorkload --------------------------------------

SerializingStormWorkload::SerializingStormWorkload(const Params &params)
    : WorkloadBase("serializing-storm", params.seed), prm(params)
{
    MLPSIM_ASSERT(prm.missesBetweenAtomics >= 1 &&
                      prm.missesBetweenAtomics <= 16,
                  "supported group sizes: 1..16");
}

void
SerializingStormWorkload::generate()
{
    constexpr Reg streamRegBase = 20;
    constexpr Reg scratch = 12;
    constexpr uint64_t lockAddr = dataBase - 4096; // stays L2 resident
    for (unsigned k = 0; k < prm.missesBetweenAtomics; ++k) {
        const uint64_t partition =
            dataBase + uint64_t(k + 1) * (4ULL << 30);
        const uint64_t lines = prm.footprintBytes / 64;
        const uint64_t addr =
            partition + (splitMix64(cursor++ ^
                                    (prm.seed * 0x9e3779b9ULL)) %
                         lines) * 64;
        // Loads are fully independent (immediate addresses): only the
        // atomic limits how many can overlap.
        emitLoad(Reg(streamRegBase + k), addr, trace::noReg, addr + 64);
        emitCompute(scratch, prm.padAluPerLoad);
    }
    emitAtomic(lockAddr);
}

// --- PrefetchedStreamWorkload --------------------------------------

PrefetchedStreamWorkload::PrefetchedStreamWorkload(const Params &params)
    : WorkloadBase("prefetched-stream", params.seed), prm(params)
{
}

void
PrefetchedStreamWorkload::generate()
{
    constexpr Reg base = 10;
    constexpr Reg data = 11;
    constexpr Reg sink = 13;
    constexpr uint64_t sinkBase = dataBase - (1ULL << 20);

    // Sequential stream: prefetch `prefetchDistanceLines` ahead, then
    // consume the current line with eight loads and a store.
    const uint64_t lines = prm.footprintBytes / 64;
    const uint64_t line = dataBase + (cursor % lines) * 64;
    const uint64_t ahead =
        dataBase + ((cursor + prm.prefetchDistanceLines) % lines) * 64;
    ++cursor;

    emitPrefetch(ahead, base);
    for (unsigned w = 0; w < 8; ++w) {
        emitLoad(data, line + w * 8, base, w);
        emitAlu(sink, data, sink);
    }
    emitStore(sinkBase + (cursor % 1024) * 64, base, sink);
}

PointerChaseWorkload::PointerChaseWorkload() : PointerChaseWorkload(Params{}) {}

IndependentStreamsWorkload::IndependentStreamsWorkload() : IndependentStreamsWorkload(Params{}) {}

SerializingStormWorkload::SerializingStormWorkload() : SerializingStormWorkload(Params{}) {}

PrefetchedStreamWorkload::PrefetchedStreamWorkload() : PrefetchedStreamWorkload(Params{}) {}

} // namespace mlpsim::workloads
