/**
 * @file
 * SweepRunner / ThreadPool unit tests: submission-ordered result
 * collection, submission-ordered failure records, batch reuse, per-job
 * metric isolation, and basic pool liveness. Compiled plain
 * (parallel_tests), under ASan/UBSan (faultinject_parallel_san) and
 * under ThreadSanitizer (parallel_tests_tsan) in the default ctest
 * tier.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics/registry.hh"
#include "util/parallel.hh"

namespace mlpsim {
namespace {

TEST(ThreadPoolTest, RunsEveryPostedJob)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 200; ++i)
        pool.post([&count] { ++count; });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 200);
    EXPECT_EQ(pool.threadCount(), 4u);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturnsImmediately)
{
    ThreadPool pool(2);
    pool.waitIdle();
    SUCCEED();
}

TEST(ThreadPoolTest, DestructorDrainsPendingWork)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i)
            pool.post([&count] { ++count; });
        // No waitIdle: the destructor must still run every job.
    }
    EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, HardwareThreadsNeverZero)
{
    EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

TEST(SweepRunnerTest, ResultsComeBackInSubmissionOrder)
{
    SweepRunner runner(8);
    std::vector<Job<uint64_t>> jobs;
    for (uint64_t i = 0; i < 100; ++i) {
        jobs.push_back(runner.defer<uint64_t>(
            "square", [i] { return i * i; }));
    }
    runner.runAll();
    for (uint64_t i = 0; i < 100; ++i)
        EXPECT_EQ(jobs[i].get(), i * i) << "slot " << i;
    EXPECT_EQ(runner.lastBatch().jobs, 100u);
}

TEST(SweepRunnerTest, SerialAndParallelProduceIdenticalResults)
{
    auto fill = [](SweepRunner &runner) {
        std::vector<Job<double>> jobs;
        for (int i = 0; i < 32; ++i) {
            jobs.push_back(runner.defer<double>("cell", [i] {
                double acc = 1.0;
                for (int k = 1; k <= 50 + i; ++k)
                    acc = acc * 1.0000001 + double(k);
                return acc;
            }));
        }
        runner.runAll();
        return jobs;
    };
    SweepRunner serial(1), parallel(8);
    auto a = fill(serial);
    auto b = fill(parallel);
    ASSERT_EQ(a.size(), b.size());
    // Identical code over identical inputs: bit-identical doubles.
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].get(), b[i].get()) << "slot " << i;
}

TEST(SweepRunnerTest, FirstExceptionInSubmissionOrderWins)
{
    SweepRunner runner(8);
    for (int i = 0; i < 16; ++i) {
        runner.deferVoid("maybe-throw", [i] {
            if (i == 3)
                throw std::runtime_error("slot 3 failed");
            if (i == 11)
                throw std::runtime_error("slot 11 failed");
        });
    }
    // Whatever order the workers finish in, the failure reported
    // first is the earliest-submitted one.
    runner.runAll();
    ASSERT_EQ(runner.lastFailures().size(), 2u);
    EXPECT_EQ(runner.lastFailures()[0].index, 3u);
    EXPECT_NE(runner.lastFailures()[0].status.message().find(
                  "slot 3 failed"),
              std::string::npos);
}

TEST(SweepRunnerTest, SuccessfulSlotsRemainReadableAfterFailedBatch)
{
    SweepRunner runner(4);
    auto ok = runner.defer<int>("ok", [] { return 42; });
    runner.deferVoid("boom", [] { throw std::runtime_error("boom"); });
    runner.runAll();
    EXPECT_EQ(ok.get(), 42);
}

TEST(SweepRunnerTest, ReadingAFailedJobIsFatalAndNamesIt)
{
    // The child re-executes the binary, so no runner thread is forked.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            SweepRunner runner(2);
            auto ok = runner.defer<int>("ok", [] { return 1; });
            auto doomed = runner.defer<int>("doomed cell", []() -> int {
                throw StatusError(Status::dataLoss("torn record"));
            });
            runner.runAll();
            (void)ok.get();
            (void)doomed.get();
        },
        ::testing::ExitedWithCode(1), "doomed cell.*torn record");
}

TEST(SweepRunnerTest, RunnerIsReusableAcrossBatches)
{
    SweepRunner runner(4);
    auto first = runner.defer<int>("first", [] { return 1; });
    runner.runAll();
    // Second batch can consume the first batch's result (the benches'
    // prepare-then-sweep pattern).
    auto second = runner.defer<int>(
        "second", [&first] { return first.get() + 1; });
    runner.runAll();
    EXPECT_EQ(first.get(), 1);
    EXPECT_EQ(second.get(), 2);
    EXPECT_EQ(runner.totalDeferred(), 2u);
    EXPECT_EQ(runner.lastBatch().jobs, 1u);
}

TEST(SweepRunnerTest, ZeroResolvesToHardwareConcurrency)
{
    SweepRunner runner(0);
    EXPECT_EQ(runner.jobs(), ThreadPool::hardwareThreads());
}

TEST(SweepRunnerTest, MoveOnlyResultsAreTakeable)
{
    SweepRunner runner(2);
    auto job = runner.defer<std::unique_ptr<int>>(
        "ptr", [] { return std::make_unique<int>(7); });
    runner.runAll();
    std::unique_ptr<int> out = job.take();
    ASSERT_TRUE(out);
    EXPECT_EQ(*out, 7);
}

TEST(SweepRunnerTest, SuccessfulJobsReportStatusAndAttempts)
{
    SweepRunner runner(2);
    auto job = runner.defer<int>("ok", [] { return 3; });
    runner.runAll();
    EXPECT_TRUE(job.succeeded());
    EXPECT_TRUE(job.status().ok());
    EXPECT_EQ(job.attempts(), 1u);
    EXPECT_TRUE(runner.lastFailures().empty());
    EXPECT_EQ(runner.lastBatch().failed, 0u);
    EXPECT_EQ(runner.lastBatch().retries, 0u);
}

TEST(SweepRunnerTest, FailedBatchStillRecordsEveryFailure)
{
    // runAll() never throws: every failure is on the record.
    SweepRunner runner(4);
    runner.deferVoid("a", [] {});
    runner.deferVoid("b", [] { throw std::runtime_error("b died"); });
    runner.deferVoid("c", [] { throw std::runtime_error("c died"); });
    EXPECT_NO_THROW(runner.runAll());
    ASSERT_EQ(runner.lastFailures().size(), 2u);
    EXPECT_EQ(runner.lastFailures()[0].label, "b");
    EXPECT_EQ(runner.lastFailures()[1].label, "c");
    EXPECT_EQ(runner.lastBatch().failed, 2u);
}

TEST(SweepRunnerTest, RecordsPerJobAndBatchTiming)
{
    SweepRunner runner(2);
    auto job = runner.defer<int>("work", [] {
        volatile int64_t sink = 0;
        for (int64_t i = 0; i < 2'000'000; ++i)
            sink = sink + i;
        return sink > 0 ? 1 : 0;
    });
    runner.runAll();
    EXPECT_EQ(job.get(), 1);
    EXPECT_GE(job.millis(), 0.0);
    const auto &batch = runner.lastBatch();
    EXPECT_EQ(batch.jobs, 1u);
    EXPECT_GE(batch.wallMillis, 0.0);
    EXPECT_GE(batch.busyMillis, 0.0);
    EXPECT_GE(batch.maxJobMillis, 0.0);
    EXPECT_GT(batch.concurrency(), 0.0);
}

TEST(SweepRunnerTest, MergesOnlySuccessfulAttemptsMetrics)
{
    // With collection on, the runner itself gives every attempt a
    // private registry and drops a failed attempt's.
    ASSERT_FALSE(metrics::enabled());
    auto &global = metrics::MetricRegistry::global();
    global.clear();
    metrics::setEnabled(true);

    SweepRunner runner(2);
    JobLimits limits;
    limits.maxAttempts = 3;
    runner.setJobLimits(limits);
    auto attempts_seen = std::make_shared<std::atomic<unsigned>>(0);
    auto flaky = runner.defer<int>("flaky", [attempts_seen] {
        metrics::cur().add("flaky/attempts");
        if (attempts_seen->fetch_add(1) == 0)
            throw StatusError(Status::unavailable("transient blip"));
        return 1;
    });
    auto doomed = runner.defer<int>("doomed", []() -> int {
        metrics::cur().add("doomed/attempts");
        throw StatusError(Status::invalidArgument("never works"));
    });
    runner.runAll();

    const auto snapshot = global.snapshot();
    metrics::setEnabled(false);
    global.clear();

    EXPECT_TRUE(flaky.succeeded());
    EXPECT_EQ(flaky.attempts(), 2u);
    EXPECT_FALSE(doomed.succeeded());
    EXPECT_EQ(doomed.attempts(), 1u);
    ASSERT_EQ(snapshot.count("flaky/attempts"), 1u);
    EXPECT_EQ(snapshot.at("flaky/attempts").counter, 1u);
    EXPECT_EQ(snapshot.count("doomed/attempts"), 0u);
}

} // namespace
} // namespace mlpsim
