#include "bench_common.hh"

#include <cstdio>
#include <mutex>
#include <optional>

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
BenchSetup::tryFromOptions(const Options &opts,
                           std::vector<std::string> extra_flags)
{
    std::vector<std::string> known{
        "warmup",       "insts",        "workload",
        "jobs",         "metrics-out",  "trace-events",
        "deadline-ms",  "retries",      "collect-failures",
        "sweep-report", "stream-chunk", "materialize"};
    known.insert(known.end(), extra_flags.begin(), extra_flags.end());
    MLPSIM_RETURN_IF_ERROR(opts.checkKnown(known));

    // A typo'd --workload value would otherwise filter every workload
    // out and the bench would silently print nothing.
    if (opts.has("workload")) {
        auto probe =
            workloads::tryMakeWorkload(opts.getString("workload", ""));
        if (!probe.ok())
            return probe.status();
    }

    BenchSetup setup;
    MLPSIM_ASSIGN_OR_RETURN(
        setup.warmupInsts, opts.tryScaledInsts("warmup", setup.warmupInsts));
    MLPSIM_ASSIGN_OR_RETURN(
        setup.measureInsts, opts.tryScaledInsts("insts", setup.measureInsts));
    MLPSIM_ASSIGN_OR_RETURN(uint64_t jobs, opts.tryGetU64("jobs", 0));
    setup.jobs = unsigned(jobs);
    setup.annotation.warmupInsts = setup.warmupInsts;
    setup.metricsOut = opts.getString("metrics-out", "");
    setup.traceEventsOut = opts.getString("trace-events", "");
    setup.sweepReportOut = opts.getString("sweep-report", "");

    MLPSIM_ASSIGN_OR_RETURN(setup.jobLimits.deadlineMillis,
                            opts.tryGetDouble("deadline-ms", -1.0));
    MLPSIM_ASSIGN_OR_RETURN(uint64_t retries,
                            opts.tryGetU64("retries", 1));
    if (retries == 0)
        return Status::invalidArgument("--retries must be at least 1 "
                                       "(it counts total attempts)");
    setup.jobLimits.retry.maxAttempts = unsigned(retries);
    setup.collectFailures = opts.has("collect-failures");

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

    if (!setup.metricsOut.empty() || !setup.traceEventsOut.empty()) {
        metrics::setEnabled(true);
        metrics::installSweepIsolation();
    }
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
BenchSetup::fromOptions(const Options &opts,
                        std::vector<std::string> extra_flags)
{
    return tryFromOptions(opts, std::move(extra_flags)).orFatal();
}

PreparedWorkload
prepareWorkload(const std::string &name, const BenchSetup &setup)
{
    metrics::ScopedLabel wl_label(name);
    PreparedWorkload prepared;
    prepared.name = name;
    prepared.warmupInsts = setup.warmupInsts;

    core::AnnotationOptions annotation = setup.annotation;
    annotation.warmupInsts = setup.warmupInsts;
    const uint64_t total = setup.warmupInsts + setup.measureInsts;

    const trace::ChunkSource *trace = nullptr;
    if (setup.streaming()) {
        // Streamed mode: no trace buffer is ever materialised. The
        // factory re-creates the generator — with the same
        // name-derived seed — for every stream open, so the annotate
        // pass and each engine run replay the identical instruction
        // sequence.
        prepared.source = std::make_unique<trace::GeneratedChunkSource>(
            name, total,
            [name] {
                return workloads::makeWorkload(
                    name, workloads::workloadSeed(name));
            },
            setup.streamChunk);
        trace = prepared.source.get();
    } else {
        // The explicit workloadSeed(name) pins the trace to the
        // workload's name: preparation order, thread assignment and
        // --jobs value cannot change a single emitted instruction.
        auto generator =
            workloads::makeWorkload(name, workloads::workloadSeed(name));
        prepared.buffer = std::make_unique<trace::TraceBuffer>(name);
        metrics::ScopedTimer t("workloads/generate_s");
        prepared.buffer->fill(*generator, total);
        trace = prepared.buffer.get();
    }
    prepared.annotated = std::make_unique<core::AnnotatedTrace>(
        core::AnnotatedTrace::make(*trace, annotation).orFatal());
    if (metrics::enabled()) {
        // Both modes count the instructions the annotate pass saw, so
        // their metric snapshots stay byte-identical.
        auto &reg = metrics::cur();
        reg.add(metrics::scopedPath("workloads/traces"), 1);
        reg.add(metrics::scopedPath("workloads/generated_insts"),
                prepared.annotated->instructions());
    }
    return prepared;
}

std::vector<PreparedWorkload>
prepareAll(const BenchSetup &setup, const Options &opts)
{
    std::vector<std::string> names;
    for (const auto &name : workloads::commercialWorkloadNames()) {
        if (opts.has("workload") &&
            opts.getString("workload", "") != name) {
            continue;
        }
        names.push_back(name);
    }

    // Each generator owns a private Rng seeded from the workload name,
    // so concurrent materialisation yields bit-identical traces.
    SweepRunner runner(setup.jobs);
    std::vector<Job<PreparedWorkload>> jobs;
    jobs.reserve(names.size());
    for (const auto &name : names) {
        jobs.push_back(runner.defer<PreparedWorkload>(
            "prepare " + name,
            [name, &setup] { return prepareWorkload(name, setup); }));
    }
    runner.runAll();
    reportBatch("prepare", runner.jobs(), runner.lastBatch());

    std::vector<PreparedWorkload> all;
    all.reserve(jobs.size());
    for (auto &job : jobs)
        all.push_back(job.take());
    return all;
}

namespace {

core::MlpResult
mlpCell(core::MlpConfig config, const PreparedWorkload &workload,
        const core::WorkloadContext &ctx)
{
    config.warmupInsts = workload.warmupInsts;
    return core::runMlp(config, ctx);
}

cyclesim::CycleSimResult
cycleSimCell(cyclesim::CycleSimConfig config,
             const PreparedWorkload &workload,
             const core::WorkloadContext &ctx)
{
    config.warmupInsts = workload.warmupInsts;
    // Surface a malformed grid cell as a Status diagnostic up front
    // instead of an assertion from inside the simulator.
    config.validate().orFatal();
    return cyclesim::CycleSim(config, ctx).run();
}

} // namespace

core::MlpResult
runMlp(core::MlpConfig config, const PreparedWorkload &workload)
{
    return mlpCell(config, workload, workload.annotated->context());
}

cyclesim::CycleSimResult
runCycleSim(cyclesim::CycleSimConfig config,
            const PreparedWorkload &workload)
{
    return cycleSimCell(config, workload, workload.annotated->context());
}

Sweep::Sweep(const BenchSetup &setup) : runner(setup.jobs)
{
    runner.setJobLimits(setup.jobLimits);
    if (setup.collectFailures)
        runner.setFailureMode(FailureMode::CollectAll);
}

template <typename R, typename Config>
Job<R>
Sweep::cell(const char *kind, Config config,
            const PreparedWorkload &workload,
            R (*body)(Config, const PreparedWorkload &,
                      const core::WorkloadContext &))
{
    const PreparedWorkload *wl = &workload;
    const std::string label = kind + (" " + workload.name);
    auto labelled = [config, wl, body](const core::WorkloadContext &ctx) {
        metrics::ScopedLabel wl_label(wl->name);
        metrics::ScopedLabel cfg_label(config.metricLabel());
        return body(config, *wl, ctx);
    };
    const core::WorkloadContext ctx = workload.annotated->context();
    if (!core::sharesGeneration(ctx) || !runner.jobLimits().shareable())
        return runner.defer<R>(label,
                               [labelled, ctx] { return labelled(ctx); });

    // Shared-generation path: the cell joins its workload's group and
    // consumes a claimed fan-out slot; its job commits exactly this
    // cell's result and metrics (see SharedCellGroup).
    core::SharedCellGroup *group = groupFor(workload);
    auto slot = std::make_shared<std::optional<R>>();
    const size_t index = group->add(core::SharedCell{
        label, [labelled, slot](const core::WorkloadContext &c) {
            slot->emplace(labelled(c));
        }});
    return runner.defer<R>(label, [group, index, slot] {
        group->runCell(index);
        return std::move(**slot);
    });
}

core::SharedCellGroup *
Sweep::groupFor(const PreparedWorkload &workload)
{
    for (auto &entry : groups)
        if (entry.first == &workload)
            return entry.second.get();
    groups.emplace_back(&workload,
                        std::make_unique<core::SharedCellGroup>(
                            workload.annotated->context()));
    return groups.back().second.get();
}

Job<core::MlpResult>
Sweep::mlp(core::MlpConfig config, const PreparedWorkload &workload)
{
    return cell("mlp", config, workload, &mlpCell);
}

Job<cyclesim::CycleSimResult>
Sweep::cycleSim(cyclesim::CycleSimConfig config,
                const PreparedWorkload &workload)
{
    return cell("cyclesim", config, workload, &cycleSimCell);
}

void
Sweep::run(const std::string &what)
{
    runner.runAll();
    // Groups are single-batch: a dependent second stage builds fresh
    // ones (the old groups' jobs have all committed by now).
    groups.clear();
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
