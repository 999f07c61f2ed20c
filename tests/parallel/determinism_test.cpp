/**
 * @file
 * End-to-end determinism of the parallel sweep path: preparing
 * workloads and running a small (config x workload) grid with
 * --jobs 1 and --jobs 8 must produce bit-identical traces,
 * MlpResults and CycleSimResults. This is the property that makes the
 * bench suite's parallelism safe: stdout of every bench is a pure
 * function of its flags, never of thread scheduling.
 *
 * Also compiled under ThreadSanitizer (parallel_tests_tsan) so the
 * shared-trace concurrent-read pattern is race-checked in the default
 * ctest tier.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_common.hh"

namespace mlpsim {
namespace {

using bench::BenchSetup;
using core::PreparedTrace;
using bench::Sweep;

/** Small-but-nontrivial budgets to keep the grid fast under TSan. */
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

std::vector<PreparedTrace>
prepare(unsigned jobs)
{
    char arg0[] = "determinism_test";
    char *argv[] = {arg0};
    Options opts(1, argv);
    return bench::prepareAll(smallSetup(jobs), opts);
}

/** The one trace prepareAll() builds for `--workload=<name>`. */
PreparedTrace
prepareOne(const std::string &name)
{
    char arg0[] = "determinism_test";
    std::string flag = "--workload=" + name;
    char *argv[] = {arg0, flag.data()};
    Options opts(2, argv);
    return std::move(bench::prepareAll(smallSetup(1), opts).front());
}

/** The grid every test sweeps: three machines per workload. */
std::vector<core::MlpConfig>
machineGrid()
{
    core::MlpConfig decoupled =
        core::MlpConfig::sized(64, core::IssueConfig::D);
    decoupled.robSize = 256;
    return {core::MlpConfig::sized(32, core::IssueConfig::A), decoupled,
            core::MlpConfig::runahead()};
}

void
expectSameMlpResult(const core::MlpResult &a, const core::MlpResult &b)
{
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.usefulAccesses, b.usefulAccesses);
    EXPECT_EQ(a.dmissAccesses, b.dmissAccesses);
    EXPECT_EQ(a.imissAccesses, b.imissAccesses);
    EXPECT_EQ(a.pmissAccesses, b.pmissAccesses);
    EXPECT_EQ(a.smissAccesses, b.smissAccesses);
    EXPECT_EQ(a.measuredInsts, b.measuredInsts);
    // Doubles compared for exact equality on purpose: identical code
    // over identical inputs must produce identical bits.
    EXPECT_EQ(a.mlp(), b.mlp());
    for (size_t i = 0; i < core::numInhibitors; ++i) {
        EXPECT_EQ(a.inhibitors.count[i], b.inhibitors.count[i])
            << "inhibitor " << i;
    }
}

TEST(SweepDeterminism, ParallelPreparationYieldsBitIdenticalTraces)
{
    const auto serial = prepare(1);
    const auto parallel = prepare(8);
    ASSERT_EQ(serial.size(), parallel.size());
    ASSERT_EQ(serial.size(), 3u);

    for (size_t w = 0; w < serial.size(); ++w) {
        EXPECT_EQ(serial[w].name(), parallel[w].name());
        const auto &a = *serial[w].buffer();
        const auto &b = *parallel[w].buffer();
        ASSERT_EQ(a.size(), b.size()) << serial[w].name();
        for (size_t i = 0; i < a.size(); ++i) {
            const auto &x = a.at(i);
            const auto &y = b.at(i);
            const bool same = x.pc == y.pc && x.effAddr == y.effAddr &&
                              x.value() == y.value() && x.target() == y.target() &&
                              x.cls() == y.cls() && x.taken() == y.taken();
            ASSERT_TRUE(same) << serial[w].name() << " instruction " << i;
        }
    }
}

TEST(SweepDeterminism, SeedsDependOnNameNotPreparationOrder)
{
    // prepareAll() must give the same trace no matter which other
    // workloads were prepared before it on the same thread.
    const auto alone = prepareOne("specweb99");
    prepareOne("database");
    prepareOne("specjbb2000");
    const auto after = prepareOne("specweb99");
    ASSERT_EQ(alone.buffer()->size(), after.buffer()->size());
    for (size_t i = 0; i < alone.buffer()->size(); ++i) {
        ASSERT_EQ(alone.buffer()->at(i).pc, after.buffer()->at(i).pc)
            << "instruction " << i;
        ASSERT_EQ(alone.buffer()->at(i).effAddr,
                  after.buffer()->at(i).effAddr)
            << "instruction " << i;
    }
    EXPECT_EQ(workloads::workloadSeed("specweb99"),
              workloads::workloadSeed("specweb99"));
    EXPECT_NE(workloads::workloadSeed("database"),
              workloads::workloadSeed("specjbb2000"));
}

TEST(SweepDeterminism, MlpGridBitIdenticalAcrossJobCounts)
{
    const auto wlsSerial = prepare(1);
    const auto wlsParallel = prepare(8);
    const auto grid = machineGrid();

    auto sweepAll = [&grid](const std::vector<PreparedTrace> &wls,
                            unsigned jobs) {
        Sweep sweep(smallSetup(jobs));
        std::vector<Job<core::MlpResult>> cells;
        for (const auto &wl : wls)
            for (const auto &cfg : grid)
                cells.push_back(sweep.mlp(cfg, wl));
        sweep.run("determinism-mlp");
        return cells;
    };

    auto serial = sweepAll(wlsSerial, 1);
    auto parallel = sweepAll(wlsParallel, 8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        expectSameMlpResult(serial[i].get(), parallel[i].get());
    }
}

TEST(SweepDeterminism, CycleSimGridBitIdenticalAcrossJobCounts)
{
    const auto wlsSerial = prepare(1);
    const auto wlsParallel = prepare(8);

    auto sweepAll = [](const std::vector<PreparedTrace> &wls,
                       unsigned jobs) {
        Sweep sweep(smallSetup(jobs));
        std::vector<Job<cyclesim::CycleSimResult>> cells;
        for (const auto &wl : wls) {
            for (unsigned latency : {200u, 1000u}) {
                cyclesim::CycleSimConfig cfg;
                cfg.offChipLatency = latency;
                cells.push_back(sweep.cycleSim(cfg, wl));
            }
        }
        sweep.run("determinism-cyclesim");
        return cells;
    };

    auto serial = sweepAll(wlsSerial, 1);
    auto parallel = sweepAll(wlsParallel, 8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        const auto &a = serial[i].get();
        const auto &b = parallel[i].get();
        EXPECT_EQ(a.cycles, b.cycles) << "cell " << i;
        EXPECT_EQ(a.instructions, b.instructions) << "cell " << i;
        EXPECT_EQ(a.offChipAccesses, b.offChipAccesses) << "cell " << i;
        EXPECT_EQ(a.mlpCycles, b.mlpCycles) << "cell " << i;
        EXPECT_EQ(a.mlpSum, b.mlpSum) << "cell " << i;
    }
}

} // namespace
} // namespace mlpsim
