/**
 * @file
 * Cooperative cancellation and per-job deadlines for long-running
 * simulation jobs.
 *
 * A sweep over thousands of (workload, config) cells cannot afford one
 * stuck job: the whole batch would hang behind it. Hard-killing a
 * thread is not an option in C++ (leaked locks, torn state), so
 * cancellation here is *cooperative*: the code that owns a job
 * (SweepRunner, a future mlpsimd front end) flags a CancelToken, and
 * the simulation kernels — epoch engine, in-order model, cyclesim,
 * trace generation — poll that flag at their natural epoch/chunk
 * boundaries and unwind with a CancelledError when it is set.
 *
 * Threading the token through every engine signature would churn the
 * whole API for a concern most callers never use, so the active token
 * rides on the executing thread instead (the metrics layer's
 * CollectorScope idiom): SweepRunner installs the job's token with a
 * CancelScope around the job body, and kernels poll through the free
 * functions below. When no token is installed — every non-sweep caller
 * — pollCancellation() is a single thread-local pointer test, so the
 * default path stays byte-identical *and* cycle-comparable.
 *
 * Deadlines are part of the token: setDeadlineAfterMillis() arms a
 * steady-clock expiry that both the polling job itself and the
 * SweepRunner watchdog thread check. A zero deadline is defined as
 * already expired (the job fails at its first poll, before doing real
 * work); a negative deadline means "none".
 *
 * Tokens form an optional parent chain (job token -> runner batch
 * token) so cancelling a whole batch is one flag write, visible
 * through every job's own token.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "util/status.hh"

namespace mlpsim {

/** Why a token stopped; also the Status code the failure maps to. */
enum class CancelKind : uint8_t { None = 0, Cancelled, DeadlineExceeded };

/**
 * Shared stop-signal between a job's owner and the code running it.
 * All members are safe to call concurrently; the fast path
 * (stopRequested() with no deadline armed) is one relaxed atomic load
 * per chain link.
 */
class CancelToken
{
  public:
    CancelToken() = default;

    /** A token that also stops whenever @p parent stops. */
    explicit CancelToken(std::shared_ptr<const CancelToken> parent)
        : chain(std::move(parent))
    {
    }

    /** Request cooperative cancellation (idempotent, thread-safe). */
    void cancel(std::string why = "cancel requested");

    /**
     * Arm a deadline @p millis from now. millis == 0 is already
     * expired; millis < 0 disarms. May be re-armed between attempts.
     */
    void setDeadlineAfterMillis(double millis);

    bool hasDeadline() const
    {
        return deadlineNs.load(std::memory_order_relaxed) != kNoDeadline;
    }

    /**
     * True once the job should stop: cancelled, past its deadline, or
     * a parent token says so. Reads the clock only when a deadline is
     * armed and the stop flag is not already set.
     */
    bool
    stopRequested() const
    {
        if (kind.load(std::memory_order_acquire) != CancelKind::None)
            return true;
        const int64_t dl = deadlineNs.load(std::memory_order_relaxed);
        if (dl != kNoDeadline && nowNs() >= dl) {
            // Latch the expiry so the reason is recorded exactly once
            // and later polls skip the clock.
            const_cast<CancelToken *>(this)->expireNow();
            return true;
        }
        return chain && chain->stopRequested();
    }

    /**
     * Watchdog entry point: latch DeadlineExceeded if the armed
     * deadline has passed. Returns true if this call did the latching
     * (so the watchdog can log each overdue job exactly once).
     */
    bool expireIfPastDeadline();

    /** OK while running; Cancelled/DeadlineExceeded once stopped. */
    Status status() const;

    /** The stop reason, walking the parent chain. */
    CancelKind stopKind() const;

  private:
    static constexpr int64_t kNoDeadline = INT64_MAX;

    static int64_t nowNs();
    void expireNow();
    void stop(CancelKind k, std::string why);

    std::atomic<CancelKind> kind{CancelKind::None};
    std::atomic<int64_t> deadlineNs{kNoDeadline}; //!< steady-clock ns
    std::shared_ptr<const CancelToken> chain;     //!< optional parent

    mutable std::mutex reasonMutex;
    std::string reason;
};

/**
 * The exception a cancelled job unwinds with. Deliberately *not* a
 * Status return: cancellation must cross the existing
 * fatal()-on-error convenience wrappers (runMlp etc.) without being
 * turned into process death, and an exception is the only channel
 * that threads through them untouched. SweepRunner catches it and
 * records the carried Status in the job's failure record.
 */
class CancelledError : public std::exception
{
  public:
    explicit CancelledError(Status status)
        : st(std::move(status)), text(st.toString())
    {
    }

    const Status &status() const { return st; }
    const char *what() const noexcept override { return text.c_str(); }

  private:
    Status st;
    std::string text;
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

/** Cheap boundary check; false (one pointer test) outside any scope. */
inline bool
cancellationRequested()
{
    const CancelToken *token = detail::t_activeCancelToken;
    return token && token->stopRequested();
}

/**
 * The poll simulation kernels place at epoch/chunk boundaries: throws
 * CancelledError carrying the token's Cancelled/DeadlineExceeded
 * status when a stop was requested; no-op otherwise.
 */
void pollCancellation();

} // namespace mlpsim
