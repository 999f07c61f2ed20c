#include "inorder_model.hh"

#include <bit>
#include <bitset>
#include <vector>

#include "core/chunk_window.hh"
#include "util/cancellation.hh"
#include "util/logging.hh"

namespace mlpsim::core {

using trace::InstClass;
using trace::noReg;

namespace {

/** Shared state of one in-order simulation. */
class InOrderRun
{
  public:
    InOrderRun(const MlpConfig &config, const WorkloadContext &workload)
        : cfg(config), wl(workload), window(workload), cur(window)
    {
        MLPSIM_ASSERT(cfg.mode == CoreMode::InOrderStallOnMiss ||
                          cfg.mode == CoreMode::InOrderStallOnUse,
                      "runInOrder needs an in-order mode");
        // The imiss-consumed flags are only ever touched within the
        // fetch-buffer lookahead of the issue point, so a power-of-two
        // ring over that span replaces the old whole-trace vector
        // (the streaming pipeline keeps no per-instruction state).
        const uint64_t span = uint64_t(cfg.fetchBufferSize) + 1;
        imissWinMask = std::bit_ceil(span) - 1;
        imissWin.assign(size_t(imissWinMask) + 1, 0);
    }

    MlpResult run();

  private:
    bool stallOnUse() const
    {
        return cfg.mode == CoreMode::InOrderStallOnUse;
    }

    void openEpochIfNeeded(uint64_t idx, bool imiss_trigger);
    void closeEpoch(Inhibitor cause);

    /** Scan the fetch buffer past a data-stall for an overlappable
     *  instruction-fetch miss (Section 3.3: imisses may overlap a
     *  missing load). */
    void lookaheadImiss(uint64_t stall_idx);

    bool usesPoisoned(const trace::TraceChunk &ck, uint32_t ci) const;

    /** Simulate instruction @p i (chunk-local index @p ci). */
    void step(const trace::TraceChunk &ck, uint32_t ci, uint64_t i);

    // --- windowed imiss-consumed flags ---
    // Reads/writes at step i happen at indices in [i, i +
    // fetchBufferSize], a span the power-of-two ring covers with
    // distinct slots. step(i) unconditionally zeroes the slot of the
    // window's newest index, i + fetchBufferSize: nothing can have
    // set it yet (the furthest earlier lookahead reached i - 1 +
    // fetchBufferSize), and the index the slot previously held is
    // ≤ i - 1, dead by the span argument. One store per instruction,
    // no per-access clearing.
    bool
    imissConsumed(uint64_t j) const
    {
        return imissWin[size_t(j & imissWinMask)] != 0;
    }

    void
    setImissConsumed(uint64_t j)
    {
        imissWin[size_t(j & imissWinMask)] = 1;
    }

    const MlpConfig cfg;
    const WorkloadContext &wl;
    ChunkWindow window;
    InstCursor cur;

    std::bitset<trace::numArchRegs> poisoned;
    std::vector<uint8_t> imissWin;
    uint64_t imissWinMask = 0;

    bool epochOpen = false;
    bool triggerIsImiss = false;
    uint64_t triggerIdx = 0;
    uint64_t epochAccesses = 0;
    uint64_t epochDmiss = 0;
    uint64_t epochImiss = 0;
    uint64_t epochPmiss = 0;

    MlpResult result;
};

void
InOrderRun::openEpochIfNeeded(uint64_t idx, bool imiss_trigger)
{
    if (epochOpen)
        return;
    epochOpen = true;
    triggerIdx = idx;
    triggerIsImiss = imiss_trigger;
}

void
InOrderRun::closeEpoch(Inhibitor cause)
{
    MLPSIM_ASSERT(epochOpen, "closing a closed epoch");
    if (triggerIdx >= cfg.warmupInsts) {
        ++result.epochs;
        result.usefulAccesses += epochAccesses;
        result.dmissAccesses += epochDmiss;
        result.imissAccesses += epochImiss;
        result.pmissAccesses += epochPmiss;
        result.inhibitors.record(cause);
        result.accessesPerEpoch.add(epochAccesses);
    }
    epochOpen = false;
    triggerIsImiss = false;
    epochAccesses = epochDmiss = epochImiss = epochPmiss = 0;
    poisoned.reset();
}

void
InOrderRun::lookaheadImiss(uint64_t stall_idx)
{
    const uint64_t limit =
        std::min<uint64_t>(wl.size(), stall_idx + 1 + cfg.fetchBufferSize);
    for (uint64_t j = stall_idx + 1; j < limit; ++j) {
        if (wl.misses->fetchMiss(j) && !imissConsumed(j)) {
            setImissConsumed(j);
            ++epochAccesses;
            ++epochImiss;
            return; // fetch blocks at the first instruction miss
        }
    }
}

bool
InOrderRun::usesPoisoned(const trace::TraceChunk &ck, uint32_t ci) const
{
    const uint8_t s0 = ck.src0[ci];
    const uint8_t s1 = ck.src1[ci];
    const uint8_t s2 = ck.src2[ci];
    return (s0 != noReg && poisoned.test(s0)) ||
           (s1 != noReg && poisoned.test(s1)) ||
           (s2 != noReg && poisoned.test(s2));
}

void
InOrderRun::step(const trace::TraceChunk &ck, uint32_t ci, uint64_t i)
{
    // Retire the imiss-consumed slot entering the lookahead window
    // (see the member comment for why this is the only clear needed).
    imissWin[size_t((i + cfg.fetchBufferSize) & imissWinMask)] = 0;

    // The trigger's data has returned (epoch-model time proxy);
    // the epoch ends without a structural stall. Only matters in
    // prefetch-dominated stretches that never stall issue.
    if (epochOpen && i - triggerIdx >= cfg.epochInstHorizon)
        closeEpoch(Inhibitor::TriggerDone);

    // Instruction-side: a fetch miss stops fetch, so it ends any
    // open epoch (overlapping with its accesses) or forms a
    // single-access epoch of its own.
    if (wl.misses->fetchMiss(i) && !imissConsumed(i)) {
        setImissConsumed(i);
        if (epochOpen) {
            ++epochAccesses;
            ++epochImiss;
            closeEpoch(Inhibitor::ImissEnd);
        } else {
            openEpochIfNeeded(i, true);
            ++epochAccesses;
            ++epochImiss;
            closeEpoch(Inhibitor::ImissStart);
        }
    }

    // Stall-on-use: the first consumer of missing data drains the
    // outstanding accesses before it can issue. Fetch keeps
    // running ahead of the stalled issue stage, so an instruction
    // miss within the fetch buffer still overlaps (same lookahead
    // a stall-on-miss machine gets at its stall point).
    if (stallOnUse() && epochOpen && usesPoisoned(ck, ci)) {
        const bool unresolvable_branch =
            ck.isBranch(ci) && wl.branches->isMispredict(i);
        lookaheadImiss(i);
        closeEpoch(unresolvable_branch ? Inhibitor::MispredBr
                                       : Inhibitor::MissingLoad);
    }

    switch (ck.cls(ci)) {
      case InstClass::Load:
        if (wl.misses->dataMiss(i)) {
            openEpochIfNeeded(i, false);
            ++epochAccesses;
            ++epochDmiss;
            if (stallOnUse()) {
                if (ck.hasDst(ci))
                    poisoned.set(ck.dst[ci]);
            } else {
                lookaheadImiss(i);
                closeEpoch(Inhibitor::MissingLoad);
            }
        } else if (stallOnUse() && ck.hasDst(ci)) {
            poisoned.reset(ck.dst[ci]);
        }
        break;

      case InstClass::Prefetch:
        if (wl.misses->usefulPrefetch(i)) {
            openEpochIfNeeded(i, false);
            ++epochAccesses;
            ++epochPmiss;
        }
        break;

      case InstClass::Serializing:
        // Drain: all outstanding accesses must complete first.
        if (epochOpen) {
            lookaheadImiss(i);
            closeEpoch(Inhibitor::Serialize);
        }
        if (ck.effAddr[ci] != 0 && wl.misses->dataMiss(i)) {
            // CASA-style atomic whose read goes off-chip: an
            // epoch of its own (the atomic blocks everything).
            openEpochIfNeeded(i, false);
            ++epochAccesses;
            ++epochDmiss;
            lookaheadImiss(i);
            closeEpoch(Inhibitor::Serialize);
        }
        break;

      case InstClass::Alu:
      case InstClass::Store:
      case InstClass::Branch:
        if (stallOnUse() && ck.hasDst(ci))
            poisoned.reset(ck.dst[ci]);
        break;
    }
}

MlpResult
InOrderRun::run()
{
    const uint64_t size = wl.size();
    result.measuredInsts =
        size > cfg.warmupInsts ? size - cfg.warmupInsts : 0;

    // Chunk-at-a-time walk reading columns in place: this loop is the
    // whole simulator, so reassembling a packed Instruction per index
    // (8 column loads into a temporary) costs a third of its runtime.
    for (uint64_t i = 0; i < size;) {
        const trace::TraceChunk &ck = cur.at(i);
        window.releaseBefore(ck.base);
        const uint32_t ck_count = ck.count;
        for (uint32_t ci = uint32_t(i - ck.base); ci < ck_count;
             ++ci, ++i) {
            // Poll every 64K instructions, as the epoch engine does,
            // so a miss-free stretch cannot outrun a deadline.
            if ((i & 0xFFFF) == 0)
                pollCancellation();
            step(ck, ci, i);
        }
    }

    if (epochOpen)
        closeEpoch(Inhibitor::EndOfTrace);
    return result;
}

} // namespace

MlpResult
runInOrder(const MlpConfig &config, const WorkloadContext &workload)
{
    return InOrderRun(config, workload).run();
}

} // namespace mlpsim::core
