/**
 * @file
 * Per-job deadlines for long-running simulation jobs.
 *
 * A sweep over thousands of (workload, config) cells cannot afford one
 * stuck job: the whole batch would hang behind it. Hard-killing a
 * thread is not an option in C++ (leaked locks, torn state), so a
 * deadline here is *cooperative*: the code that owns a job
 * (SweepRunner, or a SharedCellGroup for each cell it runs) arms a
 * CancelToken, and the simulation kernels — epoch engine, in-order
 * model, cyclesim, trace generation — poll it at their natural
 * epoch/chunk boundaries and unwind with a StatusError carrying the
 * DeadlineExceeded status once it has passed.
 *
 * Threading the token through every engine signature would churn the
 * whole API for a concern most callers never use, so the active token
 * rides on the executing thread instead (the metrics layer's
 * CollectorScope idiom): the job's owner installs the token with a
 * CancelScope around the job body, and kernels poll through the free
 * functions below. When no token is installed — every non-sweep caller
 * — pollCancellation() is a single thread-local pointer test, so the
 * default path stays byte-identical *and* cycle-comparable.
 *
 * A token is a latched deadline and nothing else: nothing cancels a
 * job from outside. setDeadlineAfterMillis() arms a steady-clock
 * expiry that the job's own polls check — stopRequested() reads the
 * clock whenever a deadline is armed — so the poll is the one place a
 * deadline is enforced, and the first poll past it latches the stop.
 * A zero deadline is defined as already expired (the job fails at its
 * first poll, before doing real work); a negative deadline, or one
 * beyond the steady clock's range, means "none".
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/status.hh"

namespace mlpsim {

/**
 * A job's deadline, shared between the job's owner and the code
 * running it. All members are safe to call concurrently; the fast
 * path (stopRequested() with no deadline armed) is two atomic loads.
 */
class CancelToken
{
  public:
    /**
     * Arm a deadline @p millis from now. millis == 0 is already
     * expired; millis < 0 disarms, and so does a deadline too far
     * away for the steady clock to reach. May be re-armed between
     * attempts; re-arming never clears an expiry already latched.
     */
    void setDeadlineAfterMillis(double millis);

    bool hasDeadline() const
    {
        return deadlineNs.load(std::memory_order_relaxed) != kNoDeadline;
    }

    /**
     * True once the deadline has passed. Reads the clock only when a
     * deadline is armed and the expiry is not already latched.
     */
    bool
    stopRequested() const
    {
        if (expired.load())
            return true;
        const int64_t dl = deadlineNs.load(std::memory_order_relaxed);
        if (dl != kNoDeadline && nowNs() >= dl) {
            // Latch, so later polls skip the clock.
            expired.store(true);
            return true;
        }
        return false;
    }

    /** OK while running; DeadlineExceeded once the expiry latched. */
    Status status() const;

  private:
    static constexpr int64_t kNoDeadline = INT64_MAX;

    static int64_t nowNs();

    mutable std::atomic<bool> expired{false};
    std::atomic<int64_t> deadlineNs{kNoDeadline}; //!< steady-clock ns
};

namespace detail {
/**
 * The executing thread's active token; null outside CancelScope.
 * Keep it defined inline, where every user sees its constant
 * initialiser: declared extern and defined in one source file, each
 * access goes through a thread_local wrapper call, and GCC's UBSan
 * reports the CancelScope stores and the loads below as stores and
 * loads of a null pointer.
 */
inline thread_local const CancelToken *t_activeCancelToken = nullptr;
} // namespace detail

/** Install @p token as the calling thread's active token (RAII). */
class CancelScope
{
  public:
    explicit CancelScope(const CancelToken *token)
        : prev(detail::t_activeCancelToken)
    {
        detail::t_activeCancelToken = token;
    }

    ~CancelScope() { detail::t_activeCancelToken = prev; }

    CancelScope(const CancelScope &) = delete;
    CancelScope &operator=(const CancelScope &) = delete;

  private:
    const CancelToken *prev;
};

/** The thread's active token (null when none installed). */
inline const CancelToken *
activeCancelToken()
{
    return detail::t_activeCancelToken;
}

/**
 * The poll simulation kernels place at epoch/chunk boundaries: throws
 * a StatusError carrying the token's DeadlineExceeded status once its
 * deadline has passed; no-op otherwise. An exception rather than a
 * Status return, because a blown deadline must cross the
 * fatal()-on-error convenience wrappers (runMlp etc.) without being
 * turned into process death; SweepRunner catches it and records the
 * carried Status in the job's failure record.
 */
void pollCancellation();

} // namespace mlpsim
