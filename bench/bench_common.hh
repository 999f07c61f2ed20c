/**
 * @file
 * Shared infrastructure for the per-table / per-figure bench binaries.
 *
 * Every bench materialises each commercial workload once (default:
 * 1M warm-up + 3M measured instructions, scalable with --warmup/
 * --insts or the MLPSIM_SCALE environment variable), annotates it, and
 * prints the paper's rows or series next to this reproduction's
 * measurements. Absolute values are not expected to match the paper's
 * proprietary traces; orderings, approximate ratios and crossovers
 * are.
 *
 * Execution model: every bench expresses its (configuration x
 * workload) grid as *deferred* cells on a Sweep, then calls
 * Sweep::run() and formats the collected results. Cells run
 * concurrently on --jobs threads (default: one per hardware thread;
 * --jobs 1 reproduces the historical serial execution exactly), but
 * results are read back in submission order, so the printed tables are
 * bit-identical for every --jobs value. Trace preparation is
 * deterministic under parallelism because each workload's generator
 * owns a private Rng seeded by workloads::workloadSeed(name) — a
 * function of the name only, not of preparation order.
 */
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/mlpsim.hh"
#include "core/shared_stream.hh"
#include "core/trace_pipeline.hh"
#include "cyclesim/cycle_sim.hh"
#include "trace/stream_source.hh"
#include "util/options.hh"
#include "util/parallel.hh"
#include "util/table.hh"
#include "workloads/factory.hh"

namespace mlpsim::bench {

/**
 * One prepared (annotated) workload: a core::PreparedTrace, materialised
 * by default or streamed under --stream-chunk, plus its name and
 * warm-up budget.
 */
struct PreparedWorkload : core::PreparedTrace
{
    std::string name;
    uint64_t warmupInsts = 0;
};

/** Instruction budgets and annotation knobs for a bench run. */
struct BenchSetup
{
    uint64_t warmupInsts = 1'000'000;
    uint64_t measureInsts = 3'000'000;
    /** Sweep parallelism: 0 = one thread per hardware thread. */
    unsigned jobs = 0;
    core::AnnotationOptions annotation;

    /**
     * --stream-chunk=N: prepare workloads in streaming mode with
     * N-instruction chunks (trace::defaultChunkCapacity is the
     * sensible choice). 0 (the default, or --materialize) materialises
     * the whole trace. Results are bit-identical between the two modes
     * and for every chunk size; streaming trades generator re-runs for
     * ~5x+ lower peak RSS on long traces.
     */
    uint32_t streamChunk = 0;

    bool streaming() const { return streamChunk != 0; }

    /**
     * Destination for the deterministic metrics snapshot ("" = metric
     * collection stays off). A ".csv" extension selects CSV, anything
     * else JSON. The file contents are bit-identical for every --jobs
     * value (see metrics/registry.hh).
     */
    std::string metricsOut;
    /** Destination for the Chrome trace_event timeline of sweep job
     *  spans ("" = off). Wall-clock data; *not* deterministic. */
    std::string traceEventsOut;

    /**
     * Per-job execution limits for every Sweep batch: --deadline-ms
     * arms a cooperative per-attempt deadline, --retries bounds the
     * attempts for transient failures (both default off, preserving
     * the historical all-or-nothing semantics byte for byte).
     */
    JobLimits jobLimits;

    /**
     * --collect-failures: run sweeps in FailureMode::CollectAll, so
     * failed cells degrade into the failure record (and the
     * --sweep-report file) instead of aborting the bench at the first
     * error. Benches read results through Job::get(), so a bench whose
     * table *needs* a failed cell still dies — but only after the
     * whole batch ran, with every failure recorded.
     */
    bool collectFailures = false;

    /** Destination for the sweep failure report ("" = off); written
     *  even when everything succeeded (0 failures documents a clean
     *  run). Wall-clock data; *not* deterministic. */
    std::string sweepReportOut;

    /**
     * Parse --warmup/--insts/--jobs/--metrics-out/--trace-events/
     * --deadline-ms/--retries/--collect-failures/--sweep-report (and
     * MLPSIM_SCALE) from @p opts, after rejecting any flag outside the
     * standard bench set plus @p extra_flags — a typo'd flag fails up
     * front instead of silently leaving a default in force for a
     * long run. Giving any output flag enables metric collection
     * and installs the sweep-isolation hooks before any threads start,
     * plus a fatal()/panic() exit-flush hook so a dying run still
     * leaves its --metrics-out / --sweep-report files on disk.
     */
    static Expected<BenchSetup>
    tryFromOptions(const Options &opts,
                   std::vector<std::string> extra_flags = {});

    /** fatal()-on-error wrapper around tryFromOptions(). */
    static BenchSetup fromOptions(const Options &opts,
                                  std::vector<std::string> extra_flags = {});
};

/**
 * Build one workload under @p setup. @p name must be one of
 * workloads::commercialWorkloadNames(). The trace seed is
 * workloads::workloadSeed(name), so the result does not depend on
 * which thread (or in which order) the preparation runs.
 */
PreparedWorkload prepareWorkload(const std::string &name,
                                 const BenchSetup &setup);

/**
 * Build all three workloads (or only --workload=<name> if given),
 * concurrently on setup.jobs threads, returned in canonical
 * (paper) order.
 */
std::vector<PreparedWorkload> prepareAll(const BenchSetup &setup,
                                         const Options &opts);

/** Run the epoch model with warm-up taken from @p workload. */
core::MlpResult runMlp(core::MlpConfig config,
                       const PreparedWorkload &workload);

/** Run the timed reference simulator likewise. */
cyclesim::CycleSimResult runCycleSim(cyclesim::CycleSimConfig config,
                                     const PreparedWorkload &workload);

/**
 * A bench's deferred job grid. Cells are enqueued with mlp() /
 * cycleSim() / task<T>(), executed together by run(), and read back
 * through their Job handles in whatever order the bench formats its
 * tables. run() reports jobs/threads/wall-time/speedup on stderr so
 * stdout stays bit-identical across --jobs values.
 */
class Sweep
{
  public:
    /** Applies setup.jobLimits and setup.collectFailures to every
     *  batch this sweep runs. */
    explicit Sweep(const BenchSetup &setup);

    /** Defer one epoch-model cell. @p workload must outlive run(). */
    Job<core::MlpResult> mlp(core::MlpConfig config,
                             const PreparedWorkload &workload);

    /** Defer one timed-pipeline cell. */
    Job<cyclesim::CycleSimResult> cycleSim(cyclesim::CycleSimConfig config,
                                           const PreparedWorkload &workload);

    /** Defer an arbitrary cell (e.g. prepare-variant-then-run). */
    template <typename T, typename Fn>
    Job<T>
    task(std::string label, Fn &&fn)
    {
        return runner.defer<T>(std::move(label),
                               std::function<T()>(std::forward<Fn>(fn)));
    }

    /**
     * Execute every cell deferred since the last run(). May be called
     * again for a dependent second stage.
     */
    void run(const std::string &what = "sweep");

    unsigned jobs() const { return runner.jobs(); }

  private:
    /**
     * Defer one simulator cell, labelled "<kind> <workload>", that
     * runs @p body. A streamed workload's cell joins its
     * shared-generation group when the job limits allow sharing
     * (JobLimits::shareable()); any other cell is a plain job.
     */
    template <typename R, typename Config>
    Job<R> cell(const char *kind, Config config,
                const PreparedWorkload &workload,
                R (*body)(Config, const PreparedWorkload &,
                          const core::WorkloadContext &));

    /** The shared-generation group for @p workload (created on first
     *  use; one per workload per batch). */
    core::SharedCellGroup *groupFor(const PreparedWorkload &workload);

    SweepRunner runner;
    /** Streamed cells of one batch, grouped by workload so each group
     *  rides shared stream generations (results and metric snapshots
     *  are byte-identical to running every cell on its own). */
    std::vector<std::pair<const PreparedWorkload *,
                          std::unique_ptr<core::SharedCellGroup>>>
        groups;
};

/** Print the standard bench banner (what/how much was simulated). */
void printBanner(const std::string &bench_name,
                 const std::string &paper_item, const BenchSetup &setup);

/**
 * Write the files requested by --metrics-out / --trace-events (no-op
 * when neither was given). Call once at the end of main, after every
 * sweep has run. The snapshot's meta block records @p bench_name and
 * the instruction budgets — deterministic values only.
 */
void writeBenchOutputs(const BenchSetup &setup,
                       const std::string &bench_name);

} // namespace mlpsim::bench
