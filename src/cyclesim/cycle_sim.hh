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
 * Implementation notes (DESIGN.md section 14). The scheduler is
 * event-driven and shares its dependence tracking with the epoch
 * engine: the dataflow window (core/dataflow_window.hh) holds the
 * ring of in-flight instructions, renaming and store forwarding, the
 * consumer lists that re-examine an instruction only when one of its
 * producers completes (O(dependence edges) instead of an O(window)
 * rescan every cycle), config B's unresolved-store list and the
 * ready pool. This pipeline adds cycle timing: completions and
 * off-chip returns sit in a calendar ring of per-cycle buckets (every
 * event lies at most the largest configured latency ahead, so the
 * bucket index cycle & mask is unique) whose busy bitmap also finds
 * the next event when an idle stretch is skipped. Its Table 2 rules
 * for config-A memory ops and for branches are in-order FIFOs whose
 * head advances wake exactly the instructions they were blocking.
 * Ready instructions drain in ascending sequence order, which
 * reproduces the old oldest-first scan's issue order, and therefore
 * every CycleSimResult bit, exactly.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "core/chunk_window.hh"
#include "core/dataflow_window.hh"
#include "core/mlp_config.hh"
#include "core/workload_context.hh"
#include "util/seq_containers.hh"
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
     *  largest is 1000). Every scheduled event lies at most this far
     *  ahead, which bounds the scheduler's calendar ring. */
    static constexpr unsigned maxLatency = 65536;

    /**
     * Width/size/latency sanity, mirroring MlpConfig::validate().
     * Execution latencies must be >= 1: the event-driven scheduler
     * delivers a value no earlier than the cycle after issue, so a
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
    using Seq = util::Seq;

    // --- RobEntry::flags bits: the window's, then the pipeline's ---
    using enum core::DataflowEntry::Flag;
    static constexpr uint16_t kDMiss = kFirstEngineFlag << 0; //!< off-chip
    static constexpr uint16_t kDL2 = kFirstEngineFlag << 1;   //!< L2 hit
    static constexpr uint16_t kUsefulPmiss = kFirstEngineFlag << 2;

    /** One in-flight instruction, exactly one cache line; kDone means
     *  issued. */
    struct alignas(64) RobEntry : core::DataflowEntry
    {
        uint64_t completeCycle = 0;    //!< valid once issued
        Seq nextDue = 0;               //!< next completion, same bucket
    };

    static_assert(sizeof(RobEntry) == 64,
                  "RobEntry must stay one cache line; see the "
                  "packed-layout notes in DESIGN.md section 14");

    /**
     * One cycle of the calendar ring that holds every scheduled event.
     * The ring's power-of-two size exceeds every configured latency, so
     * each pending event (all within (now, now + latency]) owns a
     * distinct bucket, drained at the top of its cycle.
     */
    struct Bucket
    {
        Seq dueHead = 0;             //!< completion chain via nextDue
        uint32_t offChipReturns = 0; //!< useful off-chip accesses ending
    };

    // --- pipeline stages (each returns whether it made progress) ---
    bool commitStage();
    bool issueStage();
    bool dispatchStage();
    bool fetchStage();
    uint64_t nextEventCycle() const;

    // --- event-driven scheduler helpers ---
    void makeEntry(uint64_t idx);
    void issueEntry(RobEntry &entry);
    void drainDue();

    unsigned dataLatency(const RobEntry &entry) const;
    void recordOffChip(uint64_t idx, uint64_t complete_cycle);
    void accumulateMlp(uint64_t from_cycle, uint64_t to_cycle);

    /** Calendar-ring bucket of @p cycle, marked busy; the cycle must
     *  lie within the ring's horizon. */
    Bucket &bucketFor(uint64_t cycle);

    // --- configuration and inputs ---
    const CycleSimConfig cfg;
    // Held by value (it is five non-owning pointers): callers routinely
    // pass a context materialised in the constructor call itself, and a
    // reference member would dangle by the time run() executes.
    const core::WorkloadContext wl;
    core::ChunkWindow window;      //!< buffer- or stream-backed chunks
    core::InstCursor dispatchCur;  //!< makeEntry's trailing cursor
    core::InstCursor fetchCur;     //!< fetch's leading cursor

    // --- machine state ---
    uint64_t now = 0;
    core::DataflowWindow<RobEntry> df; //!< ROB ring, renaming, wakeup
    unsigned iwOccupancy = 0;          //!< dispatched, not yet issued
    util::SeqFifo memFifo;             //!< config-A in-order memory ops
    util::SeqFifo branchFifo;          //!< in-order branches (A/B/C)

    uint64_t nextFetchIdx = 0;
    uint64_t nextDispatchIdx = 0;
    uint64_t fetchResumeCycle = 0;   //!< instruction-miss stall
    bool imissHandled = false;
    uint64_t mispredBlockSeq = 0;    //!< 0 = not blocked
    uint64_t serializeBlockSeq = 0;  //!< 0 = not blocked

    // Calendar ring of scheduled events (see Bucket): wheel[cycle &
    // wheelMask]. Fetch redirects are tracked by fetchResumeCycle.
    std::vector<Bucket> wheel;
    std::vector<uint64_t> wheelBusy;   //!< one bit per non-empty bucket
    uint64_t wheelMask = 0;
    uint64_t outstandingCount = 0;     //!< useful off-chip accesses out

    bool measuring = false;
    uint64_t committed = 0;
    uint64_t measureStartCycle = 0;
    CycleSimResult result;
};

} // namespace mlpsim::cyclesim
