/**
 * @file
 * CancelToken / CancelScope / pollCancellation unit tests: deadline
 * edge semantics (zero = already expired, negative = none), parent
 * chaining, and the thread-local scope mechanics
 * the simulation kernels' poll points rely on. Compiled plain
 * (util_tests) and under ThreadSanitizer (parallel_tests_tsan).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
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
    EXPECT_EQ(token.stopKind(), CancelKind::None);
}

TEST(CancelTokenTest, CancelIsStickyAndCarriesTheReason)
{
    CancelToken token;
    token.cancel("operator hit ^C");
    EXPECT_TRUE(token.stopRequested());
    EXPECT_EQ(token.stopKind(), CancelKind::Cancelled);
    const Status st = token.status();
    EXPECT_EQ(st.code(), ErrorCode::Cancelled);
    EXPECT_NE(st.message().find("operator hit ^C"), std::string::npos);
    // Idempotent: a second cancel must not clobber the first reason.
    token.cancel("second reason");
    EXPECT_NE(token.status().message().find("operator hit ^C"),
              std::string::npos);
}

TEST(CancelTokenTest, ZeroDeadlineIsAlreadyExpired)
{
    CancelToken token;
    token.setDeadlineAfterMillis(0.0);
    EXPECT_TRUE(token.hasDeadline());
    EXPECT_TRUE(token.stopRequested());
    EXPECT_EQ(token.stopKind(), CancelKind::DeadlineExceeded);
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

TEST(CancelTokenTest, ChildStopsWhenParentIsCancelled)
{
    auto parent = std::make_shared<CancelToken>();
    CancelToken child(parent);
    EXPECT_FALSE(child.stopRequested());
    parent->cancel("batch cancelled");
    EXPECT_TRUE(child.stopRequested());
    EXPECT_EQ(child.stopKind(), CancelKind::Cancelled);
    EXPECT_EQ(child.status().code(), ErrorCode::Cancelled);
}

TEST(CancelTokenTest, ChildCancellationDoesNotPropagateUpward)
{
    auto parent = std::make_shared<CancelToken>();
    CancelToken child(parent);
    child.cancel("just this job");
    EXPECT_TRUE(child.stopRequested());
    EXPECT_FALSE(parent->stopRequested());
}

TEST(CancelTokenTest, DeadlineCanBeRearmedBetweenAttempts)
{
    CancelToken token;
    token.setDeadlineAfterMillis(0.0);
    EXPECT_TRUE(token.hasDeadline());
    token.setDeadlineAfterMillis(-1.0);
    EXPECT_FALSE(token.hasDeadline());
    // Disarming does not clear an already-latched stop: the failure
    // was observed and must stay observable.
    // (A *fresh* token per attempt is how SweepRunner gets a clean
    // slate — re-arming only moves the expiry of a still-live token.)
}

TEST(CancelScopeTest, PollIsNoOpOutsideAnyScope)
{
    EXPECT_EQ(activeCancelToken(), nullptr);
    EXPECT_FALSE(cancellationRequested());
    EXPECT_NO_THROW(pollCancellation());
}

TEST(CancelScopeTest, PollThrowsCancelledErrorInsideACancelledScope)
{
    CancelToken token;
    token.cancel("test cancel");
    CancelScope scope(&token);
    EXPECT_EQ(activeCancelToken(), &token);
    EXPECT_TRUE(cancellationRequested());
    try {
        pollCancellation();
        FAIL() << "pollCancellation() should have thrown";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), ErrorCode::Cancelled);
    }
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

TEST(CancelTokenTest, CancelFromAnotherThreadIsObserved)
{
    CancelToken token;
    std::thread canceller([&token] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        token.cancel("from another thread");
    });
    while (!token.stopRequested())
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    canceller.join();
    EXPECT_EQ(token.status().code(), ErrorCode::Cancelled);
}

} // namespace
} // namespace mlpsim
