/**
 * @file
 * Cancellation through the real simulation kernels: the epoch engine,
 * the in-order model and the cycle-accurate reference pipeline poll
 * the ambient CancelToken every 64K instructions and the workload
 * generators every chunk, so a deadline fires
 * *mid-simulation* — not just between jobs. These tests run genuine
 * (if small) simulations and assert the deadline lands while they are
 * inside the kernel loops.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/mlpsim.hh"
#include "cyclesim/cycle_sim.hh"
#include "tests/support/test_harness.hh"
#include "trace/trace_buffer.hh"
#include "util/cancellation.hh"
#include "util/parallel.hh"
#include "workloads/factory.hh"

namespace mlpsim {
namespace {

constexpr uint64_t kWarmup = 1'000;

/** A materialised workload big enough that a few-ms deadline always
 *  lands mid-run, on any machine, sanitized or not. */
struct BigTrace
{
    std::unique_ptr<trace::TraceBuffer> buffer;
    std::unique_ptr<core::AnnotatedTrace> annotated;
};

const BigTrace &
bigTrace()
{
    static const BigTrace trace = [] {
        const std::string name =
            workloads::commercialWorkloadNames().front();
        auto generator = workloads::makeWorkload(name);
        BigTrace out;
        out.buffer = std::make_unique<trace::TraceBuffer>(name);
        out.buffer->fill(*generator, 2'000'000);
        core::AnnotationOptions ann;
        ann.warmupInsts = kWarmup;
        auto annotated = core::AnnotatedTrace::make(*out.buffer, ann);
        MLPSIM_ASSERT(annotated.ok(), annotated.status().toString());
        out.annotated = std::make_unique<core::AnnotatedTrace>(
            *std::move(annotated));
        return out;
    }();
    return trace;
}

JobLimits
withDeadline(double millis)
{
    JobLimits limits;
    limits.deadlineMillis = millis;
    return limits;
}

TEST(EngineCancelTest, EpochEngineHonoursADeadlineMidRun)
{
    SweepRunner runner(1);
    runner.setJobLimits(withDeadline(2.0));
    auto job = runner.defer<core::MlpResult>(
        "mlp under deadline", []() -> core::MlpResult {
            core::MlpConfig config = core::MlpConfig::defaultOoO();
            config.warmupInsts = kWarmup;
            auto result =
                core::tryRunMlp(config, bigTrace().annotated->context());
            if (!result.ok())
                throw StatusError(result.status());
            return *std::move(result);
        });
    runner.runAll();

    EXPECT_FALSE(job.succeeded());
    EXPECT_EQ(job.status().code(), ErrorCode::DeadlineExceeded);
}

TEST(EngineCancelTest, InOrderModelHonoursACancelledScope)
{
    // Run the kernel directly rather than through SweepRunner: the
    // runner polls once before a job starts, which would hide a kernel
    // that never polls. The trace is built before the scope, whose
    // token would otherwise stop its generation.
    const core::WorkloadContext context = bigTrace().annotated->context();
    CancelToken token;
    token.setDeadlineAfterMillis(0.0);
    CancelScope scope(&token);
    for (auto mode : {core::CoreMode::InOrderStallOnMiss,
                      core::CoreMode::InOrderStallOnUse}) {
        core::MlpConfig config = core::MlpConfig::defaultOoO();
        config.mode = mode;
        config.warmupInsts = kWarmup;
        try {
            (void)core::runMlp(config, context);
            ADD_FAILURE() << core::coreModeName(mode)
                          << " ran to completion under a cancelled scope";
        } catch (const StatusError &e) {
            EXPECT_EQ(e.status().code(), ErrorCode::DeadlineExceeded)
                << core::coreModeName(mode);
        }
    }
}

TEST(EngineCancelTest, MissFreeTraceHonoursACancelledScope)
{
    // No off-chip access means no epoch ever closes, so only the
    // kernels' every-64K-instructions polls can see the deadline.
    test::ScriptedTrace scripted;
    for (unsigned i = 0; i < 200'000; ++i)
        scripted.add(trace::makeAlu(0x1000 + 4 * i, uint8_t(1 + i % 8)));
    const core::WorkloadContext context = scripted.context();
    CancelToken token;
    token.setDeadlineAfterMillis(0.0);
    CancelScope scope(&token);
    for (auto mode :
         {core::CoreMode::OutOfOrder, core::CoreMode::Runahead,
          core::CoreMode::InOrderStallOnMiss,
          core::CoreMode::InOrderStallOnUse}) {
        core::MlpConfig config = core::MlpConfig::defaultOoO();
        config.mode = mode;
        try {
            const core::MlpResult r = core::runMlp(config, context);
            ADD_FAILURE() << core::coreModeName(mode)
                          << " ran to completion under a cancelled scope"
                          << " (epochs=" << r.epochs << ")";
        } catch (const StatusError &e) {
            EXPECT_EQ(e.status().code(), ErrorCode::DeadlineExceeded)
                << core::coreModeName(mode);
        }
    }
}

TEST(EngineCancelTest, CycleSimHonoursADeadlineMidRun)
{
    // The pipeline polls once every 64K instructions, about 30 times
    // over this trace.
    SweepRunner runner(1);
    runner.setJobLimits(withDeadline(2.0));
    auto job = runner.defer<cyclesim::CycleSimResult>(
        "cyclesim under deadline", [] {
            cyclesim::CycleSimConfig config;
            config.warmupInsts = kWarmup;
            return cyclesim::CycleSim(config,
                                      bigTrace().annotated->context())
                .run();
        });
    runner.runAll();

    EXPECT_FALSE(job.succeeded());
    EXPECT_EQ(job.status().code(), ErrorCode::DeadlineExceeded);
}

TEST(EngineCancelTest, CycleSimConfigAHonoursADeadlineMidRun)
{
    // Config A issues every memory op in order, the most stall-prone
    // mode, at a 1000-cycle miss latency. The pipeline's work and its
    // cancellation poll go by instructions, not simulated cycles, so
    // the deadline still lands at a poll every 64K instructions.
    SweepRunner runner(1);
    runner.setJobLimits(withDeadline(2.0));
    auto job = runner.defer<cyclesim::CycleSimResult>(
        "cyclesim config A under deadline", [] {
            cyclesim::CycleSimConfig config;
            config.issue = core::IssueConfig::A;
            config.offChipLatency = 1000;
            config.warmupInsts = kWarmup;
            return cyclesim::CycleSim(config,
                                      bigTrace().annotated->context())
                .run();
        });
    runner.runAll();

    EXPECT_FALSE(job.succeeded());
    EXPECT_EQ(job.status().code(), ErrorCode::DeadlineExceeded);
}

TEST(EngineCancelTest, TraceGenerationHonoursADeadlineMidFill)
{
    SweepRunner runner(1);
    runner.setJobLimits(withDeadline(5.0));
    runner.deferVoid("generate under deadline", [] {
        const std::string name =
            workloads::commercialWorkloadNames().front();
        auto generator = workloads::makeWorkload(name);
        trace::TraceBuffer buffer(name);
        // Two orders of magnitude past any realistic 5 ms of work:
        // only the fill loop's poll point can end this job.
        buffer.fill(*generator, 500'000'000);
    });
    runner.runAll();

    ASSERT_EQ(runner.lastFailures().size(), 1u);
    EXPECT_EQ(runner.lastFailures()[0].status.code(),
              ErrorCode::DeadlineExceeded);
}

TEST(EngineCancelTest, UndisturbedRunStillCompletesUnderALooseDeadline)
{
    // The poll points must not perturb results: a run that finishes
    // inside its deadline yields exactly the no-deadline result.
    core::MlpConfig config = core::MlpConfig::defaultOoO();
    config.warmupInsts = kWarmup;
    auto baseline =
        core::tryRunMlp(config, bigTrace().annotated->context());
    ASSERT_TRUE(baseline.ok());

    SweepRunner runner(1);
    runner.setJobLimits(withDeadline(300'000.0));
    auto job = runner.defer<core::MlpResult>(
        "mlp under loose deadline", [&config]() -> core::MlpResult {
            auto result =
                core::tryRunMlp(config, bigTrace().annotated->context());
            if (!result.ok())
                throw StatusError(result.status());
            return *std::move(result);
        });
    runner.runAll();

    ASSERT_TRUE(job.succeeded());
    EXPECT_EQ(job.get().mlp(), baseline->mlp());
    EXPECT_EQ(job.get().epochs, baseline->epochs);
}

} // namespace
} // namespace mlpsim
