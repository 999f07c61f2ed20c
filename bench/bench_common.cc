#include "bench_common.hh"

#include <cstdio>
#include <mutex>
#include <optional>
#include <utility>

#include "metrics/export.hh"
#include "metrics/registry.hh"
#include "util/logging.hh"

namespace mlpsim::bench {

namespace {

/** One-line batch report on stderr (stdout stays deterministic). */
void
reportBatch(const std::string &what, unsigned threads,
            const SweepRunner::BatchStats &batch)
{
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%s: %zu jobs on %u thread%s, wall %.0f ms, "
                  "busy %.0f ms, concurrency %.2fx, slowest job %.0f ms",
                  what.c_str(), batch.jobs, threads,
                  threads == 1 ? "" : "s", batch.wallMillis,
                  batch.busyMillis, batch.concurrency(),
                  batch.maxJobMillis);
    inform(line);
}

/**
 * Process-wide record of every sweep batch this bench ran, feeding
 * the --sweep-report file (and the exit-flush hook's best-effort copy
 * of it). Mutex-guarded: batches finish on the main thread, but the
 * flush hook may fire from any thread that called fatal().
 */
std::mutex g_sweepRecordMutex;
std::size_t g_sweepJobs = 0;
std::size_t g_sweepRetries = 0;
std::vector<JobFailure> g_sweepFailures;

void
recordBatch(const SweepRunner::BatchStats &batch,
            const std::vector<JobFailure> &failures)
{
    std::lock_guard<std::mutex> lock(g_sweepRecordMutex);
    // Re-index each failure by its position in the bench-wide job
    // sequence so entries from consecutive batches stay unique.
    for (JobFailure failure : failures) {
        failure.index += g_sweepJobs;
        g_sweepFailures.push_back(std::move(failure));
    }
    g_sweepJobs += batch.jobs;
    g_sweepRetries += batch.retries;

    // Degradation is part of the run's story: surface the totals in
    // the metrics snapshot. Guarded on non-zero so the all-success
    // snapshot stays byte-identical to the pre-fault-tolerance one.
    if (metrics::enabled()) {
        if (batch.failed)
            metrics::cur().add("sweep/failed_jobs", batch.failed);
        if (batch.retries)
            metrics::cur().add("sweep/retries", batch.retries);
    }
}

Status
writeSweepReport(const std::string &path)
{
    std::lock_guard<std::mutex> lock(g_sweepRecordMutex);
    metrics::JsonValue meta = metrics::JsonValue::object();
    meta.set("source", "bench");
    return metrics::writeSweepReportFile(path, g_sweepJobs,
                                         g_sweepRetries, g_sweepFailures,
                                         std::move(meta));
}

} // namespace

Expected<BenchSetup>
BenchSetup::tryFromOptions(const Options &opts)
{
    MLPSIM_RETURN_IF_ERROR(opts.checkKnown(
        {"warmup", "insts", "workload", "jobs", "metrics-out",
         "trace-events", "deadline-ms", "retries", "sweep-report",
         "stream-chunk", "materialize"}));

    MLPSIM_RETURN_IF_ERROR(
        workloads::selectWorkloads(opts.find("workload")).status());

    BenchSetup setup;
    MLPSIM_ASSIGN_OR_RETURN(
        setup.warmupInsts, opts.tryScaledInsts("warmup", setup.warmupInsts));
    MLPSIM_ASSIGN_OR_RETURN(
        setup.measureInsts, opts.tryScaledInsts("insts", setup.measureInsts));
    MLPSIM_ASSIGN_OR_RETURN(setup.jobs, parseJobs(opts, 0));
    setup.annotation.warmupInsts = setup.warmupInsts;
    setup.metricsOut = opts.getString("metrics-out", "");
    setup.traceEventsOut = opts.getString("trace-events", "");
    setup.sweepReportOut = opts.getString("sweep-report", "");

    MLPSIM_ASSIGN_OR_RETURN(setup.jobLimits, parseJobLimits(opts));

    MLPSIM_ASSIGN_OR_RETURN(uint64_t stream_chunk,
                            opts.tryGetU64("stream-chunk", 0));
    if (opts.has("stream-chunk")) {
        if (opts.has("materialize")) {
            return Status::invalidArgument(
                "--stream-chunk and --materialize are mutually "
                "exclusive");
        }
        if (stream_chunk == 0) {
            return Status::invalidArgument(
                "--stream-chunk needs an explicit chunk size >= 1 "
                "(try --stream-chunk=",
                trace::defaultChunkCapacity, ")");
        }
        if (stream_chunk > (uint64_t(1) << 24)) {
            return Status::invalidArgument(
                "--stream-chunk=", stream_chunk,
                " would allocate unreasonably large chunks (max 2^24)");
        }
    }
    setup.streamChunk = uint32_t(stream_chunk);

    if (!setup.metricsOut.empty() || !setup.traceEventsOut.empty())
        metrics::setEnabled(true);
    if (!setup.metricsOut.empty() || !setup.sweepReportOut.empty()) {
        // Best-effort flush on fatal()/panic(): a run dying mid-sweep
        // still leaves its requested output files behind. Failures
        // here are swallowed — the process is already terminating
        // with a better diagnostic.
        const std::string metrics_out = setup.metricsOut;
        const std::string report_out = setup.sweepReportOut;
        setExitFlushHook([metrics_out, report_out] {
            if (!metrics_out.empty()) {
                metrics::JsonValue meta = metrics::JsonValue::object();
                meta.set("flushed_on_exit", true);
                Status st = metrics::writeSnapshotFile(metrics_out,
                                                       std::move(meta));
                if (st.ok())
                    inform("metrics snapshot flushed to ", metrics_out);
            }
            if (!report_out.empty()) {
                Status st = writeSweepReport(report_out);
                if (st.ok())
                    inform("sweep report flushed to ", report_out);
            }
        });
    }
    return setup;
}

BenchSetup
BenchSetup::fromOptions(const Options &opts)
{
    return tryFromOptions(opts).orFatal();
}

namespace {

/** The spec of workload @p name under @p setup, plainly annotated. */
core::TraceSpec
traceSpec(const std::string &name, const BenchSetup &setup)
{
    core::TraceSpec spec;
    spec.workload = name;
    // The explicit workloadSeed(name) pins the trace to the workload's
    // name: preparation order, thread assignment and --jobs value
    // cannot change a single emitted instruction.
    spec.seed = workloads::workloadSeed(name);
    spec.totalInsts = setup.warmupInsts + setup.measureInsts;
    spec.streamChunk = setup.streamChunk;
    spec.annotation = setup.annotation;
    spec.annotation.warmupInsts = setup.warmupInsts;
    return spec;
}

} // namespace

core::PreparedTrace
prepareWorkload(const std::string &name, const BenchSetup &setup)
{
    metrics::ScopedLabel wl_label(name);
    return core::PreparedTrace::make(traceSpec(name, setup)).orFatal();
}

std::vector<core::PreparedTrace>
prepareAll(const BenchSetup &setup, const Options &opts,
           std::vector<Variant> variants)
{
    const std::vector<std::string> names =
        workloads::selectWorkloads(opts.find("workload")).orFatal();
    if (variants.empty())
        variants.push_back(Variant{"", setup.annotation});

    // Two batches: generate each workload under the first variant,
    // then re-run only the annotate pass over that one generated trace
    // for every further variant. Each generator owns a private Rng
    // seeded from the workload name, so concurrent materialisation
    // yields bit-identical traces.
    SweepRunner runner(setup.jobs);
    std::vector<core::PreparedTrace> all;
    all.reserve(names.size() * variants.size());
    for (const auto &[first, last] :
         {std::pair<size_t, size_t>{0, 1}, {1, variants.size()}}) {
        std::vector<Job<core::PreparedTrace>> jobs;
        for (size_t v = first; v < last; ++v) {
            for (size_t w = 0; w < names.size(); ++w) {
                jobs.push_back(runner.defer<core::PreparedTrace>(
                    v == 0 ? "prepare " + names[w]
                           : "annotate " + names[w] + "/" + variants[v].label,
                    [&, v, w] {
                        metrics::ScopedLabel wl_label(names[w]);
                        core::TraceSpec spec = traceSpec(names[w], setup);
                        spec.annotation = variants[v].annotation;
                        spec.annotation.warmupInsts = setup.warmupInsts;
                        spec.variant = variants[v].label;
                        return (v == 0 ? core::PreparedTrace::make(spec)
                                       : all[w].annotate(spec.variant,
                                                         spec.annotation))
                            .orFatal();
                    }));
            }
        }
        if (jobs.empty())
            break;
        runner.runAll();
        reportBatch(first == 0 ? "prepare" : "annotate", runner.jobs(),
                    runner.lastBatch());
        for (auto &job : jobs)
            all.push_back(job.take());
    }
    return all;
}

namespace {

cyclesim::CycleSimResult
cycleSimCell(const cyclesim::CycleSimConfig &config,
             const core::WorkloadContext &ctx)
{
    // Surface a malformed grid cell as a Status diagnostic up front
    // instead of an assertion from inside the simulator.
    config.validate().orFatal();
    return cyclesim::CycleSim(config, ctx).run();
}

} // namespace

Sweep::Sweep(const BenchSetup &setup) : runner(setup.jobs)
{
    runner.setJobLimits(setup.jobLimits);
}

template <typename R, typename Config>
Job<R>
Sweep::cell(const char *kind, Config config,
            const core::PreparedTrace &workload,
            R (*body)(const Config &, const core::WorkloadContext &))
{
    config.warmupInsts = workload.warmupInsts();
    const std::string name = workload.name();
    const std::string variant = workload.variant();
    return grid.defer<R>(
        runner, workload,
        kind + (" " + name) + (variant.empty() ? "" : "/" + variant),
        [config, name, variant, body](const core::WorkloadContext &ctx) {
            metrics::ScopedLabel wl_label(name);
            std::optional<metrics::ScopedLabel> variant_label;
            if (!variant.empty())
                variant_label.emplace(variant);
            metrics::ScopedLabel cfg_label(config.metricLabel());
            return body(config, ctx);
        });
}

Job<core::MlpResult>
Sweep::mlp(core::MlpConfig config, const core::PreparedTrace &workload)
{
    return cell("mlp", config, workload, &core::runMlp);
}

Job<cyclesim::CycleSimResult>
Sweep::cycleSim(cyclesim::CycleSimConfig config,
                const core::PreparedTrace &workload)
{
    return cell("cyclesim", config, workload, &cycleSimCell);
}

void
Sweep::run(const std::string &what)
{
    runner.runAll();
    // Groups are single-batch: a dependent second stage builds fresh
    // ones (the old groups' jobs have all committed by now).
    grid.clear();
    reportBatch(what, runner.jobs(), runner.lastBatch());
    recordBatch(runner.lastBatch(), runner.lastFailures());
}

void
printBanner(const std::string &bench_name, const std::string &paper_item,
            const BenchSetup &setup)
{
    std::printf("====================================================\n");
    std::printf("%s — reproduces %s\n", bench_name.c_str(),
                paper_item.c_str());
    std::printf("trace: %llu warm-up + %llu measured instructions per "
                "workload\n",
                (unsigned long long)setup.warmupInsts,
                (unsigned long long)setup.measureInsts);
    std::printf("====================================================\n");
}

void
writeBenchOutputs(const BenchSetup &setup, const std::string &bench_name)
{
    if (!setup.metricsOut.empty()) {
        metrics::JsonValue meta = metrics::JsonValue::object();
        meta.set("bench", metrics::JsonValue(bench_name));
        meta.set("warmup_insts", metrics::JsonValue(setup.warmupInsts));
        meta.set("measure_insts", metrics::JsonValue(setup.measureInsts));
        metrics::writeSnapshotFile(setup.metricsOut, std::move(meta))
            .orFatal();
        inform("metrics snapshot written to ", setup.metricsOut);
    }
    if (!setup.traceEventsOut.empty()) {
        metrics::writeTraceEventsFile(setup.traceEventsOut).orFatal();
        inform("trace events written to ", setup.traceEventsOut);
    }
    if (!setup.sweepReportOut.empty()) {
        writeSweepReport(setup.sweepReportOut).orFatal();
        inform("sweep report written to ", setup.sweepReportOut);
    }
}

} // namespace mlpsim::bench
