/**
 * @file
 * Metrics under parallelism: concurrent registry updates are race-free
 * (this file is also compiled into parallel_tests_tsan, so TSan checks
 * every load/store), and the JSON snapshot a bench sweep produces is
 * bit-identical between --jobs 1 and --jobs 8 — the determinism
 * contract the --metrics-out flag advertises.
 */
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "metrics/export.hh"
#include "metrics/registry.hh"

namespace mlpsim {
namespace {

using bench::BenchSetup;
using bench::Sweep;

TEST(MetricsConcurrency, ConcurrentUpdatesAreRaceFree)
{
    metrics::MetricRegistry reg;
    constexpr int threads = 4;
    constexpr uint64_t opsPerThread = 5'000;

    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&reg, t] {
            for (uint64_t i = 0; i < opsPerThread; ++i) {
                reg.add("shared/count");
                reg.add("per_thread/count" + std::to_string(t));
                reg.observe("shared/stat", double(i));
                reg.observeKey("shared/hist", i % 16);
                reg.set("shared/gauge", double(t));
            }
        });
    }
    for (auto &worker : workers)
        worker.join();

    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.at("shared/count").counter, threads * opsPerThread);
    EXPECT_EQ(snap.at("shared/stat").stat.count(), threads * opsPerThread);
    EXPECT_EQ(snap.at("shared/hist").hist.samples(),
              threads * opsPerThread);
    for (int t = 0; t < threads; ++t) {
        EXPECT_EQ(
            snap.at("per_thread/count" + std::to_string(t)).counter,
            opsPerThread);
    }
}

TEST(MetricsConcurrency, ConcurrentMergesLoseNothing)
{
    metrics::MetricRegistry target;
    constexpr int threads = 4;

    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&target] {
            metrics::MetricRegistry local;
            local.add("merged/count", 10);
            local.observe("merged/stat", 1.0);
            target.merge(local);
        });
    }
    for (auto &worker : workers)
        worker.join();

    const auto snap = target.snapshot();
    EXPECT_EQ(snap.at("merged/count").counter, 10u * threads);
    EXPECT_EQ(snap.at("merged/stat").stat.count(), unsigned(threads));
}

/** Small budgets; mirrors tests/parallel/determinism_test.cpp. */
BenchSetup
smallSetup(unsigned jobs)
{
    BenchSetup setup;
    setup.warmupInsts = 10'000;
    setup.measureInsts = 40'000;
    setup.jobs = jobs;
    setup.annotation.warmupInsts = setup.warmupInsts;
    return setup;
}

/**
 * Run the full instrumented bench pipeline (prepareAll + an mlp/cycle
 * sweep) at @p jobs and return the canonical JSON snapshot text.
 */
std::string
sweepSnapshot(unsigned jobs)
{
    metrics::MetricRegistry::global().clear();

    char arg0[] = "metrics_determinism_test";
    char *argv[] = {arg0};
    Options opts(1, argv);
    const auto wls = bench::prepareAll(smallSetup(jobs), opts);

    Sweep sweep(smallSetup(jobs));
    for (const auto &wl : wls) {
        sweep.mlp(core::MlpConfig::sized(64, core::IssueConfig::C), wl);
        sweep.mlp(core::MlpConfig::runahead(), wl);
        cyclesim::CycleSimConfig cycle_cfg;
        sweep.cycleSim(cycle_cfg, wl);
    }
    sweep.run("metrics-determinism");

    metrics::JsonValue meta = metrics::JsonValue::object();
    meta.set("bench", "metrics-determinism");
    std::string text =
        metrics::toJson(metrics::MetricRegistry::global().snapshot(),
                        std::move(meta))
            .dump(2);
    metrics::MetricRegistry::global().clear();
    return text;
}

TEST(MetricsDeterminism, SweepSnapshotsBitIdenticalAcrossJobCounts)
{
    ASSERT_FALSE(metrics::enabled());
    metrics::setEnabled(true);

    const std::string serial = sweepSnapshot(1);
    const std::string parallel = sweepSnapshot(8);
    metrics::setEnabled(false);

    // Something must actually have been collected...
    EXPECT_NE(serial.find("core/epoch_engine"), std::string::npos);
    EXPECT_NE(serial.find("workloads/"), std::string::npos);
    // ...and the serialised documents must match byte for byte.
    EXPECT_EQ(serial, parallel);
}

} // namespace
} // namespace mlpsim
