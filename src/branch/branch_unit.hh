/**
 * @file
 * Composite branch prediction unit (gshare + BTB + RAS) and the
 * program-order misprediction annotator shared by both simulators.
 *
 * Like the memory-side AccessProfiler, misprediction outcomes are
 * precomputed over the trace in program order so the epoch-model
 * simulator and the cycle-accurate reference agree exactly on *which*
 * dynamic branches mispredict; they then differ only in how that
 * misprediction interacts with the window, which is the effect under
 * study.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "branch/btb.hh"
#include "branch/gshare.hh"
#include "branch/ras.hh"
#include "trace/trace_chunk.hh"
#include "util/bitvec.hh"
#include "util/status.hh"

namespace mlpsim::branch {

/** Front-end predictor configuration (paper Section 5.1 defaults). */
struct BranchConfig
{
    unsigned gshareEntries = 64 * 1024;
    unsigned historyBits = 16;
    unsigned btbEntries = 16 * 1024;
    unsigned btbAssoc = 4;
    unsigned rasDepth = 16;
    /** Perfect branch prediction (limit study): nothing mispredicts. */
    bool perfect = false;
};

/**
 * Check predictor table geometries (power-of-two gshare, BTB sets
 * dividing evenly into ways, non-zero RAS, history bits within the
 * gshare's 16-bit register) without constructing anything.
 */
Status validateConfig(const BranchConfig &config);

/** Combined direction + target predictor. */
class BranchUnit
{
  public:
    explicit BranchUnit(const BranchConfig &config);

    /**
     * Predict and train on one dynamic branch.
     * @retval true the branch was mispredicted (direction or target).
     */
    bool predictAndUpdate(const trace::Instruction &inst);

    uint64_t branches() const { return nBranches; }
    uint64_t mispredicts() const { return nMispredicts; }
    double mispredictRate() const;

    void reset();

  private:
    BranchConfig cfg;
    Gshare gshare;
    Btb btb;
    ReturnAddressStack ras;
    uint64_t nBranches = 0;
    uint64_t nMispredicts = 0;
};

/** Per-trace branch outcome annotations. */
struct BranchAnnotations
{
    /** One flag per dynamic instruction: mispredicted branch. */
    util::BitVector mispredicted;
    uint64_t branches = 0;
    uint64_t mispredicts = 0;

    bool
    isMispredict(size_t i) const
    {
        return mispredicted.test(i);
    }

    double
    mispredictRate() const
    {
        return branches ? double(mispredicts) / double(branches) : 0.0;
    }
};

/**
 * Chunk-incremental branch annotator: the annotate pass feeds trace
 * chunks in program order and the predictor state (gshare history,
 * BTB, RAS) carries across chunk boundaries, so the outcome plane is
 * bit-identical to a whole-trace pass for any chunking.
 */
class BranchAnnotator
{
  public:
    BranchAnnotator(const BranchConfig &config, uint64_t warmup_insts)
        : unit(config), warmup(warmup_insts)
    {
    }

    /** Feed the next chunk of the trace, in order. */
    void add(const trace::TraceChunk &chunk);

    /** The completed annotations; the annotator is spent afterwards. */
    BranchAnnotations finish() { return std::move(ann); }

  private:
    BranchUnit unit;
    uint64_t warmup;
    BranchAnnotations ann;
    /** Per-chunk branch mask scratch (trace/chunk_scan.hh). */
    std::vector<uint64_t> scanMask;
};

} // namespace mlpsim::branch
