/**
 * @file
 * CancelToken / CancelScope / pollCancellation unit tests: deadline
 * edge semantics (zero = already expired, negative or out of the
 * clock's range = none, expiry latched), and the thread-local scope
 * mechanics the simulation kernels' poll points rely on. Compiled plain
 * (util_tests) and under ThreadSanitizer (parallel_tests_tsan).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "util/cancellation.hh"

namespace mlpsim {
namespace {

TEST(CancelTokenTest, FreshTokenIsNotStopped)
{
    CancelToken token;
    EXPECT_FALSE(token.stopRequested());
    EXPECT_FALSE(token.hasDeadline());
    EXPECT_TRUE(token.status().ok());
}

TEST(CancelTokenTest, ZeroDeadlineIsAlreadyExpired)
{
    CancelToken token;
    token.setDeadlineAfterMillis(0.0);
    EXPECT_TRUE(token.hasDeadline());
    EXPECT_TRUE(token.stopRequested());
    EXPECT_EQ(token.status().code(), ErrorCode::DeadlineExceeded);
}

TEST(CancelTokenTest, NegativeDeadlineMeansNone)
{
    CancelToken token;
    token.setDeadlineAfterMillis(-1.0);
    EXPECT_FALSE(token.hasDeadline());
    EXPECT_FALSE(token.stopRequested());
}

TEST(CancelTokenTest, GenerousDeadlineDoesNotStopImmediately)
{
    CancelToken token;
    token.setDeadlineAfterMillis(60'000.0);
    EXPECT_TRUE(token.hasDeadline());
    EXPECT_FALSE(token.stopRequested());
}

TEST(CancelTokenTest, DeadlineBeyondTheClocksRangeMeansNone)
{
    // 1e12 ms (~32 years) still fits the steady clock's int64 ns; the
    // larger ones do not, and must not wrap into a past deadline.
    CancelToken near;
    near.setDeadlineAfterMillis(1e12);
    EXPECT_TRUE(near.hasDeadline());
    EXPECT_FALSE(near.stopRequested());
    for (const double millis : {1e13, 1e300, HUGE_VAL}) {
        SCOPED_TRACE(millis);
        CancelToken token;
        token.setDeadlineAfterMillis(millis);
        EXPECT_FALSE(token.hasDeadline());
        EXPECT_FALSE(token.stopRequested());
        EXPECT_TRUE(token.status().ok());
    }
}

TEST(CancelTokenTest, ExpiryStaysLatchedAfterRearming)
{
    CancelToken token;
    token.setDeadlineAfterMillis(0.0);
    ASSERT_TRUE(token.stopRequested());
    token.setDeadlineAfterMillis(-1.0);
    EXPECT_TRUE(token.stopRequested());
    token.setDeadlineAfterMillis(60'000.0);
    EXPECT_TRUE(token.stopRequested());
    EXPECT_EQ(token.status().code(), ErrorCode::DeadlineExceeded);
}

TEST(CancelTokenTest, DeadlineCanBeRearmedBetweenAttempts)
{
    CancelToken token;
    token.setDeadlineAfterMillis(0.0);
    EXPECT_TRUE(token.hasDeadline());
    token.setDeadlineAfterMillis(-1.0);
    EXPECT_FALSE(token.hasDeadline());
    // A *fresh* token per attempt is how SweepRunner gets a clean
    // slate — re-arming only moves the expiry of a still-live token
    // (ExpiryStaysLatchedAfterRearming).
}

TEST(CancelScopeTest, PollIsNoOpOutsideAnyScope)
{
    EXPECT_EQ(activeCancelToken(), nullptr);
    EXPECT_NO_THROW(pollCancellation());
}

TEST(CancelScopeTest, PollCarriesDeadlineExceededForExpiredDeadline)
{
    CancelToken token;
    token.setDeadlineAfterMillis(0.0);
    CancelScope scope(&token);
    try {
        pollCancellation();
        FAIL() << "pollCancellation() should have thrown";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), ErrorCode::DeadlineExceeded);
    }
}

TEST(CancelScopeTest, ScopesNestAndRestoreThePreviousToken)
{
    CancelToken outer, inner;
    {
        CancelScope outer_scope(&outer);
        EXPECT_EQ(activeCancelToken(), &outer);
        {
            CancelScope inner_scope(&inner);
            EXPECT_EQ(activeCancelToken(), &inner);
        }
        EXPECT_EQ(activeCancelToken(), &outer);
    }
    EXPECT_EQ(activeCancelToken(), nullptr);
}

TEST(CancelScopeTest, ActiveTokenIsPerThread)
{
    CancelToken token;
    CancelScope scope(&token);
    std::atomic<bool> other_thread_saw_null{false};
    std::thread other([&other_thread_saw_null] {
        other_thread_saw_null = (activeCancelToken() == nullptr);
    });
    other.join();
    EXPECT_TRUE(other_thread_saw_null.load());
    EXPECT_EQ(activeCancelToken(), &token);
}

} // namespace
} // namespace mlpsim
