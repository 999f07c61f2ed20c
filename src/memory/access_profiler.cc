#include "access_profiler.hh"

#include "metrics/registry.hh"
#include "trace/chunk_scan.hh"

namespace mlpsim::memory {

void
AccessProfiler::recordUseful(size_t i)
{
    if (i < cfg.warmupInsts)
        return;
    if (haveUseful)
        ann.interMissDistance.add(uint64_t(i - lastUsefulIndex));
    haveUseful = true;
    lastUsefulIndex = i;
}

void
AccessProfiler::creditDemandTouch(uint64_t addr)
{
    auto it = pendingPrefetches.find(mem.lineAddr(addr));
    if (it == pendingPrefetches.end())
        return;
    const size_t prefetch_index = it->second;
    pendingPrefetches.erase(it);
    if (ann.usefulPrefetchV.test(prefetch_index))
        return;
    ann.usefulPrefetchV.set(prefetch_index);
    if (prefetch_index >= cfg.warmupInsts) {
        ++ann.usefulPrefetches;
        --ann.uselessPrefetches;
    }
}

void
AccessProfiler::add(const trace::TraceChunk &chunk)
{
    using trace::InstClass;

    // Grow the annotation planes to cover this chunk. The retroactive
    // prefetch credit above may still write into earlier regions —
    // the planes are whole-trace state, never per-chunk.
    const size_t end = chunk.end();
    if (end > ann.fetchMissV.size()) {
        ann.fetchMissV.resize(end);
        ann.dataMissV.resize(end);
        ann.usefulPrefetchV.resize(end);
        ann.dataL2HitV.resize(end);
        ann.storeMissV.resize(end);
    }

    auto on_l2_eviction = [&](const HierarchyAccessResult &r) {
        if (r.l2Evicted)
            pendingPrefetches.erase(r.l2EvictedLine);
    };

    // Two-phase walk (trace/chunk_scan.hh): a vectorizable mask build
    // selects exactly the instructions whose body below does any work
    // — memory-class instructions plus fetch-line boundaries — then
    // the body runs sparsely over the set bits. A skipped instruction
    // is an Alu/Branch on an already-fetched line: every arm below is
    // a no-op for it, so the walk is bit-identical to the dense one.
    scanMask.assign(trace::scanWords(chunk.count), 0);
    constexpr uint32_t interesting_classes =
        trace::classBit(InstClass::Load) |
        trace::classBit(InstClass::Store) |
        trace::classBit(InstClass::Prefetch) |
        trace::classBit(InstClass::Serializing);
    trace::orClassMask(chunk, interesting_classes, scanMask.data());
    const uint64_t line_mask = ~mem.lineAddr(~uint64_t(0));
    uint64_t boundary_carry = lastFetchLine;
    trace::orFetchBoundaryMask(chunk, line_mask, boundary_carry,
                               scanMask.data());

    trace::forEachSetBit(scanMask.data(), chunk.count, [&](uint32_t ci) {
        const size_t i = chunk.base + ci;
        const bool measured = i >= cfg.warmupInsts;
        const InstClass cls = chunk.cls(ci);
        const uint64_t pc = chunk.pc[ci];
        const uint64_t eff_addr = chunk.effAddr[ci];

        // Instruction side: one access per fetched 64B line.
        const uint64_t fetch_line = mem.lineAddr(pc);
        if (fetch_line != lastFetchLine) {
            lastFetchLine = fetch_line;
            const auto r = mem.instFetch(pc);
            on_l2_eviction(r);
            creditDemandTouch(pc);
            if (r.offChip()) {
                ann.fetchMissV.set(i);
                if (measured)
                    ++ann.fetchMisses;
                recordUseful(i);
            }
        }

        // Data side.
        switch (cls) {
          case InstClass::Load:
          {
            const auto r = mem.dataRead(eff_addr);
            on_l2_eviction(r);
            creditDemandTouch(eff_addr);
            if (r.offChip()) {
                ann.dataMissV.set(i);
                if (measured)
                    ++ann.loadMisses;
                recordUseful(i);
            } else if (r.level == AccessLevel::L2) {
                ann.dataL2HitV.set(i);
            }
            break;
          }
          case InstClass::Store:
          {
            const auto r = mem.dataWrite(eff_addr);
            on_l2_eviction(r);
            // Stores neither credit prefetches (the paper credits only
            // loads and instruction fetches) nor count toward the
            // paper's MLP; the flag below feeds the store-MLP
            // extension.
            if (r.offChip()) {
                ann.storeMissV.set(i);
                if (measured)
                    ++ann.storeMisses;
            }
            break;
          }
          case InstClass::Prefetch:
          {
            const auto r = mem.prefetch(eff_addr);
            on_l2_eviction(r);
            if (r.offChip()) {
                pendingPrefetches[mem.lineAddr(eff_addr)] = i;
                if (measured)
                    ++ann.uselessPrefetches;
                // Marked useful (and moved between the useless/useful
                // tallies) retroactively if a demand access touches the
                // line. The inter-miss record for a useful prefetch is
                // made here, at issue order, since that is where the
                // access sits in the stream; a tiny overcount for
                // prefetches that end up useless is acceptable and
                // covered in tests.
                recordUseful(i);
            }
            break;
          }
          case InstClass::Serializing:
          {
            if (eff_addr != 0) {
                // CASA/LDSTUB-style atomic: reads (and writes) its
                // target. An off-chip atomic read is a demand load
                // miss for MLP purposes.
                const auto r = mem.dataRead(eff_addr);
                on_l2_eviction(r);
                creditDemandTouch(eff_addr);
                if (r.offChip()) {
                    ann.dataMissV.set(i);
                    if (measured)
                        ++ann.loadMisses;
                    recordUseful(i);
                }
            }
            break;
          }
          case InstClass::Alu:
          case InstClass::Branch:
            break;
        }
    });
}

MissAnnotations
AccessProfiler::finish()
{
    const size_t n = ann.fetchMissV.size();
    ann.measuredInsts = n > cfg.warmupInsts ? n - cfg.warmupInsts : 0;

    if (metrics::enabled()) {
        mem.exportMetrics(metrics::scopedPath("memory"));
        auto &reg = metrics::cur();
        reg.add(metrics::scopedPath("memory/profile/runs"), 1);
        reg.add(metrics::scopedPath("memory/profile/fetch_misses"),
                ann.fetchMisses);
        reg.add(metrics::scopedPath("memory/profile/load_misses"),
                ann.loadMisses);
        reg.add(metrics::scopedPath("memory/profile/store_misses"),
                ann.storeMisses);
        reg.add(metrics::scopedPath("memory/profile/useful_prefetches"),
                ann.usefulPrefetches);
        reg.add(metrics::scopedPath("memory/profile/useless_prefetches"),
                ann.uselessPrefetches);
    }
    return std::move(ann);
}

MissAnnotations
AccessProfiler::profile(const trace::TraceBuffer &buffer) const
{
    AccessProfiler pass(cfg);
    for (size_t ci = 0; ci < buffer.numChunks(); ++ci)
        pass.add(buffer.chunk(ci));
    return pass.finish();
}

double
MissAnnotations::missRatePer100() const
{
    if (!measuredInsts)
        return 0.0;
    return 100.0 * double(usefulAccesses()) / double(measuredInsts);
}

} // namespace mlpsim::memory
