/**
 * @file
 * Fault injection against the resilient sweep layer itself: stuck jobs
 * versus deadlines, throwing jobs versus collect-all degradation,
 * transiently failing jobs versus the fixed retry schedule, and the
 * zero-deadline edge. Pure
 * synthetic jobs only (no simulator dependencies), so the suite also
 * compiles stand-alone under ASan/UBSan (faultinject_parallel_san) and
 * rides the TSan target (parallel_tests_tsan).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/cancellation.hh"
#include "util/parallel.hh"
#include "util/status.hh"

namespace mlpsim {
namespace {

/** Poll-loop "stuck" body: spins until its deadline stops it. */
void
spinUntilCancelled()
{
    for (;;) {
        pollCancellation();
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
}

JobLimits
withDeadline(double millis)
{
    JobLimits limits;
    limits.deadlineMillis = millis;
    return limits;
}

TEST(SweepFaultTest, StuckJobIsReapedByItsDeadline)
{
    SweepRunner runner(4);
    runner.setJobLimits(withDeadline(50.0));
    auto good = runner.defer<int>("good", [] { return 7; });
    runner.deferVoid("stuck", spinUntilCancelled);
    runner.runAll();

    EXPECT_TRUE(good.succeeded());
    EXPECT_EQ(good.get(), 7);
    ASSERT_EQ(runner.lastFailures().size(), 1u);
    const JobFailure &failure = runner.lastFailures()[0];
    EXPECT_EQ(failure.label, "stuck");
    EXPECT_EQ(failure.index, 1u);
    EXPECT_EQ(failure.status.code(), ErrorCode::DeadlineExceeded);
    EXPECT_EQ(failure.failureClass(), FailureClass::Cancelled);
    EXPECT_EQ(runner.lastBatch().failed, 1u);
}

TEST(SweepFaultTest, ZeroDeadlineFailsBeforeTheBodyRuns)
{
    SweepRunner runner(2);
    runner.setJobLimits(withDeadline(0.0));
    auto body_ran = std::make_shared<std::atomic<bool>>(false);
    auto job = runner.defer<int>("skipped", [body_ran] {
        body_ran->store(true);
        return 1;
    });
    runner.runAll();

    EXPECT_FALSE(body_ran->load());
    EXPECT_FALSE(job.succeeded());
    EXPECT_EQ(job.status().code(), ErrorCode::DeadlineExceeded);
    EXPECT_EQ(job.attempts(), 1u);
}

TEST(SweepFaultTest, DeadlineIsPerAttemptNotPerJob)
{
    // A blown deadline is classified Cancelled, so it must never be
    // retried even under a generous attempt budget.
    SweepRunner runner(2);
    JobLimits limits = withDeadline(0.0);
    limits.maxAttempts = 5;
    runner.setJobLimits(limits);
    auto job = runner.defer<int>("expired", [] { return 1; });
    runner.runAll();

    EXPECT_FALSE(job.succeeded());
    EXPECT_EQ(job.attempts(), 1u);
    EXPECT_EQ(runner.lastBatch().retries, 0u);
}

TEST(SweepFaultTest, TransientFailureRetriesUntilSuccess)
{
    SweepRunner runner(2);
    JobLimits limits;
    limits.maxAttempts = 4;
    runner.setJobLimits(limits);

    auto attempts_seen = std::make_shared<std::atomic<unsigned>>(0);
    auto job = runner.defer<int>("flaky", [attempts_seen] {
        if (attempts_seen->fetch_add(1) + 1 <= 2)
            throw StatusError(Status::unavailable("transient blip"));
        return 99;
    });
    runner.runAll();

    EXPECT_TRUE(job.succeeded());
    EXPECT_EQ(job.get(), 99);
    EXPECT_EQ(job.attempts(), 3u);
    EXPECT_TRUE(runner.lastFailures().empty());
    EXPECT_EQ(runner.lastBatch().failed, 0u);
    EXPECT_EQ(runner.lastBatch().retries, 2u);
}

TEST(SweepFaultTest, TransientFailureExhaustsItsAttemptBudget)
{
    SweepRunner runner(2);
    JobLimits limits;
    limits.maxAttempts = 3;
    runner.setJobLimits(limits);

    auto job = runner.defer<int>("always-down", []() -> int {
        throw StatusError(Status::unavailable("still down"));
    });
    runner.runAll();

    EXPECT_FALSE(job.succeeded());
    EXPECT_EQ(job.status().code(), ErrorCode::Unavailable);
    EXPECT_EQ(job.attempts(), 3u);
    ASSERT_EQ(runner.lastFailures().size(), 1u);
    EXPECT_EQ(runner.lastFailures()[0].attempts, 3u);
    EXPECT_EQ(runner.lastFailures()[0].failureClass(),
              FailureClass::Transient);
    EXPECT_EQ(runner.lastBatch().retries, 2u);
}

TEST(RetryPolicyTest, AttemptBudgetIsRespected)
{
    // Budget by budget: a transient failure is retried while
    // attempt < maxAttempts, so an always-down job runs exactly
    // maxAttempts times and a job that recovers on its last budgeted
    // attempt succeeds. A budget of 0 behaves like 1.
    for (unsigned budget = 0; budget <= 4; ++budget) {
        const unsigned expected = budget == 0 ? 1u : budget;
        SweepRunner runner(2);
        JobLimits limits;
        limits.maxAttempts = budget;
        runner.setJobLimits(limits);

        auto down_calls = std::make_shared<std::atomic<unsigned>>(0);
        auto down = runner.defer<int>("always-down", [down_calls]() -> int {
            down_calls->fetch_add(1);
            throw StatusError(Status::unavailable("down"));
        });
        auto late_calls = std::make_shared<std::atomic<unsigned>>(0);
        auto late = runner.defer<int>(
            "recovers-last", [late_calls, expected]() -> int {
                if (late_calls->fetch_add(1) + 1 < expected)
                    throw StatusError(Status::unavailable("not yet"));
                return 7;
            });
        runner.runAll();

        EXPECT_EQ(down_calls->load(), expected) << "budget " << budget;
        EXPECT_EQ(down.attempts(), expected) << "budget " << budget;
        EXPECT_FALSE(down.succeeded()) << "budget " << budget;
        EXPECT_EQ(late_calls->load(), expected) << "budget " << budget;
        ASSERT_TRUE(late.succeeded()) << "budget " << budget;
        EXPECT_EQ(late.get(), 7);
        EXPECT_EQ(runner.lastBatch().retries, 2 * (expected - 1))
            << "budget " << budget;
    }
}

TEST(SweepFaultTest, PermanentFailureIsNeverRetried)
{
    SweepRunner runner(2);
    JobLimits limits;
    limits.maxAttempts = 5;
    runner.setJobLimits(limits);

    auto calls = std::make_shared<std::atomic<unsigned>>(0);
    auto job = runner.defer<int>("poisoned", [calls]() -> int {
        calls->fetch_add(1);
        throw StatusError(Status::dataLoss("corrupt cell"));
    });
    runner.runAll();

    EXPECT_EQ(calls->load(), 1u);
    EXPECT_FALSE(job.succeeded());
    EXPECT_EQ(job.status().code(), ErrorCode::DataLoss);
    ASSERT_EQ(runner.lastFailures().size(), 1u);
    EXPECT_EQ(runner.lastFailures()[0].failureClass(),
              FailureClass::Permanent);
    EXPECT_EQ(runner.lastBatch().retries, 0u);
}

TEST(SweepFaultTest, DefaultLimitsNeverRetry)
{
    SweepRunner runner(2);
    auto calls = std::make_shared<std::atomic<unsigned>>(0);
    auto job = runner.defer<int>("down-once", [calls]() -> int {
        calls->fetch_add(1);
        throw StatusError(Status::unavailable("transient but unbudgeted"));
    });
    runner.runAll();

    EXPECT_EQ(calls->load(), 1u);
    EXPECT_EQ(job.attempts(), 1u);
    EXPECT_EQ(job.status().code(), ErrorCode::Unavailable);
    EXPECT_EQ(runner.lastBatch().retries, 0u);
}

TEST(SweepFaultTest, OnlyTransientFailuresRetry)
{
    // Under one attempt budget, each failure code either uses all of
    // it (transient) or runs exactly once (everything else, including
    // a job that itself reports Cancelled or DeadlineExceeded).
    const struct
    {
        Status failure;
        unsigned expectedCalls;
    } cases[] = {
        {Status::unavailable("down"), 3},
        {Status::ioError("flaky disk"), 3},
        {Status::dataLoss("corrupt"), 1},
        {Status::cancelled("stop"), 1},
        {Status::deadlineExceeded("too slow"), 1},
    };
    SweepRunner runner(2);
    JobLimits limits;
    limits.maxAttempts = 3;
    runner.setJobLimits(limits);

    std::vector<std::shared_ptr<std::atomic<unsigned>>> calls;
    std::vector<Job<int>> jobs;
    for (const auto &c : cases) {
        auto count = std::make_shared<std::atomic<unsigned>>(0);
        calls.push_back(count);
        jobs.push_back(runner.defer<int>(
            errorCodeName(c.failure.code()),
            [count, failure = c.failure]() -> int {
                count->fetch_add(1);
                throw StatusError(failure);
            }));
    }
    runner.runAll();

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const ErrorCode code = cases[i].failure.code();
        EXPECT_EQ(calls[i]->load(), cases[i].expectedCalls)
            << errorCodeName(code);
        EXPECT_EQ(jobs[i].attempts(), cases[i].expectedCalls)
            << errorCodeName(code);
        EXPECT_EQ(jobs[i].status().code(), code);
    }
    EXPECT_EQ(runner.lastBatch().retries, 4u); // 2 each, transient only
}

TEST(SweepFaultTest, PlainExceptionsClassifyAsPermanentInternal)
{
    SweepRunner runner(2);
    runner.deferVoid("legacy-throw",
                     [] { throw std::runtime_error("unclassified"); });
    runner.runAll();

    ASSERT_EQ(runner.lastFailures().size(), 1u);
    const JobFailure &failure = runner.lastFailures()[0];
    EXPECT_EQ(failure.status.code(), ErrorCode::Internal);
    EXPECT_EQ(failure.failureClass(), FailureClass::Permanent);
    EXPECT_NE(failure.status.message().find("unclassified"),
              std::string::npos);
}

TEST(SweepFaultTest, CollectAllKeepsEveryFailureInSubmissionOrder)
{
    SweepRunner runner(8);
    std::vector<Job<int>> jobs;
    for (int i = 0; i < 20; ++i) {
        jobs.push_back(runner.defer<int>(
            "cell " + std::to_string(i), [i]() -> int {
                if (i % 3 == 0)
                    throw StatusError(Status::dataLoss("bad cell ", i));
                return i * 10;
            }));
    }
    runner.runAll();

    const auto &failures = runner.lastFailures();
    ASSERT_EQ(failures.size(), 7u); // i = 0, 3, 6, 9, 12, 15, 18
    for (std::size_t k = 0; k < failures.size(); ++k) {
        EXPECT_EQ(failures[k].index, k * 3);
        EXPECT_EQ(failures[k].label,
                  "cell " + std::to_string(k * 3));
    }
    for (int i = 0; i < 20; ++i) {
        if (i % 3 == 0)
            EXPECT_FALSE(jobs[i].succeeded()) << i;
        else
            EXPECT_EQ(jobs[i].get(), i * 10) << i;
    }
    EXPECT_EQ(runner.lastBatch().failed, 7u);
}

TEST(SweepFaultTest, SerialRunnerHandlesFaultsIdentically)
{
    // jobs == 1 executes inline on the calling thread; the failure
    // model must not depend on which path ran the job.
    SweepRunner runner(1);
    runner.setJobLimits(withDeadline(0.0));
    auto job = runner.defer<int>("inline-expired", [] { return 1; });
    runner.runAll();
    EXPECT_FALSE(job.succeeded());
    EXPECT_EQ(job.status().code(), ErrorCode::DeadlineExceeded);

    // The calling thread's ambient token must be restored: work on
    // this thread after runAll() is not stopped.
    EXPECT_EQ(activeCancelToken(), nullptr);
    EXPECT_NO_THROW(pollCancellation());
}

TEST(SweepFaultTest, RunnerRecoversAcrossBatchesAfterFailures)
{
    SweepRunner runner(2);
    runner.setJobLimits(withDeadline(0.0));
    runner.deferVoid("doomed", [] {});
    runner.runAll();
    ASSERT_EQ(runner.lastFailures().size(), 1u);

    // Next batch with sane limits: clean slate, no leftover failures.
    runner.setJobLimits(JobLimits{});
    auto ok = runner.defer<int>("fine", [] { return 5; });
    runner.runAll();
    EXPECT_TRUE(runner.lastFailures().empty());
    EXPECT_EQ(runner.lastBatch().failed, 0u);
    EXPECT_EQ(ok.get(), 5);
}

TEST(SweepFaultTest, RetriedJobGetsAFreshDeadlinePerAttempt)
{
    // Each attempt of a transient failure gets its own token and its
    // own full deadline; earlier attempts' expiry must not leak in.
    SweepRunner runner(2);
    JobLimits limits = withDeadline(200.0);
    limits.maxAttempts = 3;
    runner.setJobLimits(limits);

    auto attempts_seen = std::make_shared<std::atomic<unsigned>>(0);
    auto job = runner.defer<int>("flaky-with-deadline", [attempts_seen] {
        pollCancellation(); // a live token must be installed
        if (attempts_seen->fetch_add(1) + 1 < 3)
            throw StatusError(Status::unavailable("blip"));
        return 1;
    });
    runner.runAll();
    EXPECT_TRUE(job.succeeded());
    EXPECT_EQ(job.attempts(), 3u);
}

} // namespace
} // namespace mlpsim
