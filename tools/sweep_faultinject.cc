/**
 * @file
 * Fault-injection harness for the resilient sweep path.
 *
 * Runs a real (small) epoch-model sweep — every commercial workload
 * under issue configs 64C and 64E — and injects configurable faults
 * alongside it: jobs that hang until their deadline fires, jobs that
 * throw permanent errors, and flaky jobs that fail transiently a set
 * number of times before succeeding. In the default collect-all mode
 * the sweep runs to completion anyway: good cells print their results
 * (deterministically — the injected faults must not perturb them),
 * failed jobs degrade into the sweep report, and retried jobs show up
 * in the retry count. The faultinject_sweep ctest drives this binary
 * and validates the emitted report with
 * `metrics_check --kind sweep-report`.
 *
 * Usage:
 *   sweep_faultinject [--jobs N] [--insts N] [--warmup N]
 *       [--stuck N] [--throw N] [--flaky N] [--flaky-failures F]
 *       [--deadline-ms D] [--retries R] [--backoff-ms B] [--seed S]
 *       [--report FILE] [--journal FILE] [--propagate]
 *
 * This binary is also the demonstration of the Status-returning
 * option path: it uses Options::parse / checkKnown / tryGetU64 /
 * tryScaledInsts and reports flag errors recoverably on stderr with
 * exit code 2, where the benches' classic getters would fatal().
 */
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/mlpsim.hh"
#include "core/trace_pipeline.hh"
#include "metrics/export.hh"
#include "service/result_cache.hh"
#include "service/wire.hh"
#include "util/cancellation.hh"
#include "util/options.hh"
#include "util/parallel.hh"
#include "workloads/factory.hh"

using namespace mlpsim;

namespace {

struct GridCell
{
    std::string label;
    core::MlpConfig config;
    const core::PreparedTrace *trace;
    /** Journal key (service::cellKey of the cell's trace and config). */
    std::string journalKey;
};

/** Spin until cancelled: the "stuck job" the watchdog exists for. */
void
stuckBody()
{
    for (;;) {
        pollCancellation();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

int
flagError(const Status &status)
{
    std::fprintf(stderr, "sweep_faultinject: %s\n",
                 status.toString().c_str());
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    auto parsed = Options::parse(argc, argv);
    if (!parsed.ok())
        return flagError(parsed.status());
    const Options &opts = *parsed;
    const Status known = opts.checkKnown(
        {"jobs", "insts", "warmup", "stuck", "throw", "flaky",
         "flaky-failures", "deadline-ms", "retries", "backoff-ms",
         "seed", "report", "journal", "propagate"});
    if (!known.ok())
        return flagError(known);

    uint64_t insts = 0, warmup = 0, jobs = 0;
    uint64_t stuck = 0, throwing = 0, flaky = 0, flaky_failures = 0;
    uint64_t retries = 0, seed = 0;
    double deadline_ms = 0.0, backoff_ms = 0.0;
    {
        // Every getter returns Expected; the first failure aborts the
        // run with a description instead of a fatal() stack.
        struct Binding
        {
            uint64_t *out;
            Expected<uint64_t> value;
        };
        Binding bindings[] = {
            {&insts, opts.tryScaledInsts("insts", 20'000)},
            {&warmup, opts.tryScaledInsts("warmup", 2'000)},
            {&jobs, opts.tryGetU64("jobs", 2)},
            {&stuck, opts.tryGetU64("stuck", 0)},
            {&throwing, opts.tryGetU64("throw", 0)},
            {&flaky, opts.tryGetU64("flaky", 0)},
            {&flaky_failures, opts.tryGetU64("flaky-failures", 2)},
            {&retries, opts.tryGetU64("retries", 1)},
            {&seed, opts.tryGetU64("seed", 0)},
        };
        for (Binding &binding : bindings) {
            if (!binding.value.ok())
                return flagError(binding.value.status());
            *binding.out = *binding.value;
        }
        auto deadline = opts.tryGetDouble("deadline-ms", -1.0);
        if (!deadline.ok())
            return flagError(deadline.status());
        deadline_ms = *deadline;
        auto backoff = opts.tryGetDouble("backoff-ms", 1.0);
        if (!backoff.ok())
            return flagError(backoff.status());
        backoff_ms = *backoff;
    }
    if (stuck != 0 && deadline_ms < 0.0) {
        return flagError(Status::invalidArgument(
            "--stuck requires --deadline-ms (a stuck job would hang "
            "the sweep forever)"));
    }

    // ----- build the real grid ------------------------------------
    const auto &names = workloads::commercialWorkloadNames();
    std::vector<core::PreparedTrace> traces;
    traces.reserve(names.size()); // cells point into it
    std::vector<GridCell> cells;
    const std::pair<const char *, core::MlpConfig> configs[] = {
        {"64C", core::MlpConfig::defaultOoO()},
        {"64E", core::MlpConfig::sized(64, core::IssueConfig::E)},
    };
    for (const std::string &name : names) {
        core::TraceSpec spec;
        spec.workload = name;
        spec.seed = workloads::presetSeed(name);
        spec.totalInsts = insts;
        spec.annotation.warmupInsts = warmup;
        auto trace = core::PreparedTrace::make(spec);
        if (!trace.ok())
            return flagError(trace.status());
        traces.push_back(*std::move(trace));
        for (const auto &[key, config] : configs) {
            core::MlpConfig cell_config = config;
            cell_config.warmupInsts = warmup;
            const std::string label = name + "/" + key;
            cells.push_back(GridCell{label, cell_config, &traces.back(),
                                     service::cellKey(spec, cell_config)});
        }
    }

    // Without --journal the cache is memory-only: every lookup misses.
    auto journal = service::ResultCache::open(opts.getString("journal", ""));
    if (!journal.ok())
        return flagError(journal.status());

    // ----- defer everything ---------------------------------------
    SweepRunner runner{unsigned(jobs)};
    runner.setFailureMode(opts.has("propagate") ? FailureMode::Propagate
                                                : FailureMode::CollectAll);
    JobLimits limits;
    limits.deadlineMillis = deadline_ms;
    limits.retry.maxAttempts = unsigned(retries);
    limits.retry.baseBackoffMillis = backoff_ms;
    limits.retry.seed = seed;
    runner.setJobLimits(limits);

    std::vector<Job<core::MlpResult>> results(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const GridCell &cell = cells[i];
        core::MlpResult replay;
        if (journal->lookup(cell.journalKey, &replay)) {
            std::printf("%-16s  mlp %.6f  (journal)\n", cell.label.c_str(),
                        replay.mlp());
            continue;
        }
        results[i] = runner.defer<core::MlpResult>(
            cell.label, [&cell]() -> core::MlpResult {
                auto result =
                    core::tryRunMlp(cell.config, cell.trace->context());
                if (!result.ok())
                    throw StatusError(result.status());
                return *std::move(result);
            });
    }

    // Injected faults ride the same batch as the real cells.
    for (uint64_t i = 0; i < stuck; ++i)
        runner.deferVoid("inject/stuck" + std::to_string(i), stuckBody);
    for (uint64_t i = 0; i < throwing; ++i) {
        runner.deferVoid("inject/throw" + std::to_string(i), [] {
            throw StatusError(
                Status::dataLoss("injected permanent fault"));
        });
    }
    for (uint64_t i = 0; i < flaky; ++i) {
        auto attempts_seen = std::make_shared<std::atomic<uint64_t>>(0);
        runner.deferVoid("inject/flaky" + std::to_string(i),
                         [attempts_seen, flaky_failures] {
                             const uint64_t attempt =
                                 attempts_seen->fetch_add(1) + 1;
                             if (attempt <= flaky_failures) {
                                 throw StatusError(Status::unavailable(
                                     "injected transient fault (attempt ",
                                     attempt, ")"));
                             }
                         });
    }

    runner.runAll();

    // ----- report --------------------------------------------------
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!results[i].valid() || !results[i].succeeded())
            continue;
        const core::MlpResult &result = results[i].get();
        std::printf("%-16s  mlp %.6f\n", cells[i].label.c_str(),
                    result.mlp());
        const Status st = journal->record(cells[i].journalKey, result);
        if (!st.ok())
            warn(st.toString());
    }

    const auto &batch = runner.lastBatch();
    const auto &failures = runner.lastFailures();
    std::printf("sweep: %zu jobs, %zu failed, %zu retries\n", batch.jobs,
                batch.failed, batch.retries);
    for (const JobFailure &failure : failures) {
        std::printf("  failed: %-16s  [%s] %s (attempts %u)\n",
                    failure.label.c_str(),
                    failureClassName(failure.failureClass()),
                    errorCodeName(failure.status.code()),
                    failure.attempts);
    }

    const std::string report_path = opts.getString("report", "");
    if (!report_path.empty()) {
        metrics::JsonValue meta = metrics::JsonValue::object();
        meta.set("tool", "sweep_faultinject");
        meta.set("insts", insts);
        meta.set("warmup", warmup);
        metrics::writeSweepReportFile(report_path, batch.jobs,
                                      batch.retries, failures,
                                      std::move(meta))
            .orFatal();
    }
    return 0;
}
