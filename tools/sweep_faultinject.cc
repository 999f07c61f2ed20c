/**
 * @file
 * Fault-injection harness for the resilient sweep path.
 *
 * Runs a real (small) epoch-model sweep — every commercial workload
 * under issue configs 64C and 64E — and injects configurable faults
 * alongside it: jobs that hang until their deadline fires, jobs that
 * throw permanent errors, and flaky jobs that fail transiently a set
 * number of times before succeeding. The sweep runs to completion
 * anyway: good cells print their results (deterministically — the
 * injected faults must not perturb them), failed jobs degrade into
 * the sweep report, and retried jobs show up in the retry count. The
 * tool then exits 0, or with --propagate exits 1 naming the first
 * failure in submission order. The faultinject_sweep ctest drives this
 * binary and validates the emitted report with
 * `metrics_check --kind sweep-report`.
 *
 * Usage:
 *   sweep_faultinject [--jobs N] [--insts N] [--warmup N]
 *       [--stuck N] [--throw N] [--flaky N] [--flaky-failures F]
 *       [--deadline-ms D] [--retries R] [--report FILE] [--propagate]
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
#include "util/cancellation.hh"
#include "util/options.hh"
#include "util/parallel.hh"
#include "workloads/factory.hh"

using namespace mlpsim;

namespace {

/** Spin until the deadline: the "stuck job" a deadline exists for. */
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
         "flaky-failures", "deadline-ms", "retries", "report",
         "propagate"});
    if (!known.ok())
        return flagError(known);

    uint64_t insts = 0, warmup = 0;
    uint64_t stuck = 0, throwing = 0, flaky = 0, flaky_failures = 0;
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
            {&stuck, opts.tryGetU64("stuck", 0)},
            {&throwing, opts.tryGetU64("throw", 0)},
            {&flaky, opts.tryGetU64("flaky", 0)},
            {&flaky_failures, opts.tryGetU64("flaky-failures", 2)},
        };
        for (Binding &binding : bindings) {
            if (!binding.value.ok())
                return flagError(binding.value.status());
            *binding.out = *binding.value;
        }
    }
    const auto jobs = parseJobs(opts, 2);
    if (!jobs.ok())
        return flagError(jobs.status());
    const auto limits = parseJobLimits(opts);
    if (!limits.ok())
        return flagError(limits.status());
    CancelToken probe;
    probe.setDeadlineAfterMillis(limits->deadlineMillis);
    if (stuck != 0 && !probe.hasDeadline()) {
        return flagError(Status::invalidArgument(
            "--stuck requires a --deadline-ms the clock can reach (a "
            "stuck job would hang the sweep forever)"));
    }

    // ----- defer the real grid ------------------------------------
    SweepRunner runner{*jobs};
    runner.setJobLimits(*limits);
    const auto &names = workloads::commercialWorkloadNames();
    std::vector<core::PreparedTrace> traces;
    traces.reserve(names.size()); // cells point into it
    std::vector<std::string> labels;
    std::vector<Job<core::MlpResult>> results;
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
        for (auto [key, config] : configs) {
            config.warmupInsts = warmup;
            labels.push_back(name + "/" + key);
            results.push_back(runner.defer<core::MlpResult>(
                labels.back(),
                [config, trace = &traces.back()]() -> core::MlpResult {
                    auto result = core::tryRunMlp(config, trace->context());
                    if (!result.ok())
                        throw StatusError(result.status());
                    return *std::move(result);
                }));
        }
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
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].succeeded())
            std::printf("%-16s  mlp %.6f\n", labels[i].c_str(),
                        results[i].get().mlp());
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
    if (opts.has("propagate") && !failures.empty()) {
        const JobFailure &first = failures.front();
        std::fprintf(stderr, "sweep_faultinject: job '%s' failed: %s\n",
                     first.label.c_str(), first.status.toString().c_str());
        return 1;
    }
    return 0;
}
