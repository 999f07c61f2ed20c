/**
 * @file
 * Cycle-accurate reference simulator.
 *
 * Plays the role of the paper's proprietary cycle-accurate SPARC
 * simulator: an independent, *timed* out-of-order pipeline used to
 * (a) validate the timing-free epoch model (Table 3 compares the MLP
 * both report) and (b) measure CPI, CPI_perf and Overlap_CM for the
 * performance model (Tables 1 and 4).
 *
 * The pipeline: in-order fetch (blocking on instruction misses and on
 * unresolved mispredicted branches) into a fetch buffer, in-order
 * dispatch into an issue window + ROB, out-of-order issue respecting
 * the Table 2 constraints for configurations A-C (like the paper's
 * simulator, out-of-order branch issue is not supported), per-class
 * execution latencies with load latency chosen by where the access
 * hits (from the shared annotations), and in-order commit. Serializing
 * instructions drain the pipeline. MLP(t) is sampled every cycle as
 * the number of useful off-chip accesses outstanding; average MLP is
 * its mean over the cycles where it is non-zero (paper Section 2.1).
 *
 * Implementation notes (DESIGN.md section 14). The pipeline is timed
 * in one program-order pass, not a cycle loop. Fetch, dispatch and
 * commit are in order and issue is oldest-first, so no instruction's
 * cycles depend on a younger one: run() stamps each instruction's
 * fetch, dispatch, issue, done and commit cycle from the stamps of
 * older instructions alone (the recurrences are in cycle_sim.cc). It
 * keeps the stamps of the last ROB's worth of instructions, the done
 * cycle of each register's and each address's newest writer, and the
 * issue counts of the cycles still ahead. MLP(t) comes from the
 * off-chip access intervals the pass records. Every CycleSimResult
 * bit equals the cycle-by-cycle pipeline's, which the
 * CycleSimEquivalence tests keep as their reference.
 */
#pragma once

#include <cstdint>
#include <string>

#include "core/mlp_config.hh"
#include "core/workload_context.hh"
#include "util/status.hh"

namespace mlpsim::cyclesim {

/** Timed-pipeline configuration. */
struct CycleSimConfig
{
    core::IssueConfig issue = core::IssueConfig::C;

    unsigned fetchWidth = 3;
    unsigned dispatchWidth = 3;
    unsigned issueWidth = 3;
    unsigned commitWidth = 3;

    unsigned fetchBufferSize = 32;
    unsigned issueWindowSize = 64;
    unsigned robSize = 64;

    unsigned aluLatency = 1;
    unsigned l1Latency = 3;
    unsigned l2Latency = 15;
    unsigned offChipLatency = 200;   //!< the paper's MissPenalty
    unsigned branchRedirectPenalty = 10;

    /** Model a perfect L2: off-chip accesses become L2 hits. Used to
     *  measure CPI_perf. */
    bool perfectL2 = false;

    uint64_t warmupInsts = 0;

    /** Largest accepted execution latency, in cycles (the paper's
     *  largest is 1000). It bounds the first size of the pass's
     *  per-cycle issue-count ring, which grows on demand after. */
    static constexpr unsigned maxLatency = 65536;

    /**
     * Width/size/latency sanity, mirroring MlpConfig::validate().
     * Execution latencies must be >= 1: a value is consumed no
     * earlier than the cycle after its producer issues, so a
     * zero-latency producer would be consumable a cycle late. They
     * must also be <= maxLatency. The CycleSim constructor asserts
     * this; bench setup surfaces it as a Status before any sweep
     * starts.
     */
    Status validate() const;

    /** Metric-path segment, e.g. "cyc64C-mp200" or "...+perfL2". */
    std::string metricLabel() const;
};

/** Measurements over the post-warm-up region. */
struct CycleSimResult
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t offChipAccesses = 0;
    uint64_t mlpCycles = 0;        //!< cycles with >=1 access outstanding
    double mlpSum = 0.0;           //!< sum of MLP(t) over those cycles

    double
    cpi() const
    {
        return instructions ? double(cycles) / double(instructions) : 0.0;
    }

    double
    mlp() const
    {
        return mlpCycles ? mlpSum / double(mlpCycles) : 0.0;
    }

    double
    missRatePer100() const
    {
        return instructions
                   ? 100.0 * double(offChipAccesses) / double(instructions)
                   : 0.0;
    }
};

/** The timed out-of-order pipeline. */
class CycleSim
{
  public:
    CycleSim(const CycleSimConfig &config,
             const core::WorkloadContext &workload);

    /** Simulate the whole trace and return measurements. */
    CycleSimResult run();

  private:
    const CycleSimConfig cfg;
    // Held by value (it is five non-owning pointers): callers routinely
    // pass a context materialised in the constructor call itself, and a
    // reference member would dangle by the time run() executes.
    const core::WorkloadContext wl;
};

} // namespace mlpsim::cyclesim
