/**
 * @file
 * Shared infrastructure for the per-table / per-figure bench binaries.
 *
 * Every bench prepares each commercial workload once (default:
 * 1M warm-up + 3M measured instructions, scalable with --warmup/
 * --insts or the MLPSIM_SCALE environment variable): it materialises
 * the trace, or with --stream-chunk regenerates it once per group of
 * up to core::maxConsumersPerGeneration cells, cells with a deadline
 * or retries included, annotates it, and prints the paper's rows or
 * series next to this reproduction's measurements. Absolute values are
 * not expected to match the paper's proprietary traces; orderings,
 * approximate ratios and crossovers are.
 *
 * A bench that changes only the annotation substrates (Figure 7's L2
 * sizes, Figures 10 and 11's perfect predictors) asks prepareAll for
 * labelled annotation variants of the one generated trace; their
 * cells are ordinary Sweep cells.
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

#include <memory>
#include <string>
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
     * Per-job execution limits for every Sweep batch (parseJobLimits):
     * --deadline-ms sets JobLimits::deadlineMillis, a per-attempt
     * deadline checked where the kernels poll for cancellation — a
     * streamed cell keeps its own deadline inside its shared
     * generation; --retries sets JobLimits::maxAttempts, the total
     * attempts for a transient failure, retried on SweepRunner's fixed
     * backoff schedule. Both default off, and with them on the output
     * of a run that meets its deadlines is unchanged byte for byte.
     * A failed cell never stops its batch: every failure lands in the
     * failure record (and the --sweep-report file), and the bench
     * dies, via fatal(), only where it reads a failed cell's result.
     */
    JobLimits jobLimits;

    /** Destination for the sweep failure report ("" = off); written
     *  even when everything succeeded (0 failures documents a clean
     *  run). Wall-clock data; *not* deterministic. */
    std::string sweepReportOut;

    /**
     * Parse --warmup/--insts/--jobs/--metrics-out/--trace-events/
     * --deadline-ms/--retries/--sweep-report (and
     * MLPSIM_SCALE) from @p opts, after rejecting any flag outside the
     * standard bench set — a typo'd flag fails up front instead of
     * silently leaving a default in force for a long run. Giving any
     * output flag enables metric collection before any threads start
     * (SweepRunner isolates each job's metrics by itself), plus a
     * fatal()/panic() exit-flush hook so a dying run still
     * leaves its --metrics-out / --sweep-report files on disk.
     */
    static Expected<BenchSetup> tryFromOptions(const Options &opts);

    /** fatal()-on-error wrapper around tryFromOptions(). */
    static BenchSetup fromOptions(const Options &opts);
};

/** One annotation of every workload's trace that a bench needs. */
struct Variant
{
    /** Metric-path segment and job-label suffix; empty only for the
     *  plain setup.annotation. */
    std::string label;
    /** Its warmupInsts is ignored: every variant of a trace keeps
     *  setup.warmupInsts. */
    core::AnnotationOptions annotation;
};

/**
 * Build all three workloads (or only --workload=<name> if given) on
 * setup.jobs threads: generate each once, annotated with
 * @p variants[0], then annotate it once per further variant
 * (core::PreparedTrace::annotate). Returned variant-major, workloads
 * in canonical (paper) order: entry v * W + w is workload w's variant
 * v. No variants means setup.annotation alone, unlabelled. Each
 * trace is seeded by workloads::workloadSeed(name), so it does not
 * depend on which thread, or in which order, it is prepared.
 */
std::vector<core::PreparedTrace>
prepareAll(const BenchSetup &setup, const Options &opts,
           std::vector<Variant> variants = {});

/**
 * A bench's deferred job grid. Cells are enqueued with mlp() /
 * cycleSim(), executed together by run(), and read back
 * through their Job handles in whatever order the bench formats its
 * tables. run() reports jobs/threads/wall-time/speedup on stderr so
 * stdout stays bit-identical across --jobs values.
 */
class Sweep
{
  public:
    /** Applies setup.jobLimits to every batch this sweep runs. */
    explicit Sweep(const BenchSetup &setup);

    /** Defer one epoch-model cell. @p workload must outlive run(). */
    Job<core::MlpResult> mlp(core::MlpConfig config,
                             const core::PreparedTrace &workload);

    /** Defer one timed-pipeline cell. */
    Job<cyclesim::CycleSimResult>
    cycleSim(cyclesim::CycleSimConfig config,
             const core::PreparedTrace &workload);

    /**
     * Execute every cell deferred since the last run(). May be called
     * again for a dependent second stage.
     */
    void run(const std::string &what = "sweep");

  private:
    /**
     * Defer one simulator cell, labelled "<kind> <workload>[/<variant>]",
     * that runs @p body at the workload's warm-up under the metric
     * labels <workload>[/<variant>]/<config>. The grid decides whether
     * it rides its workload's shared generation (core::CellGrid).
     */
    template <typename R, typename Config>
    Job<R> cell(const char *kind, Config config,
                const core::PreparedTrace &workload,
                R (*body)(const Config &, const core::WorkloadContext &));

    SweepRunner runner;
    core::CellGrid grid;
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
