#include "cancellation.hh"

namespace mlpsim {

int64_t
CancelToken::nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
CancelToken::stop(CancelKind k, std::string why)
{
    // First stop wins; later calls (watchdog racing the poller, a
    // cancel() after expiry) keep the original kind and reason. The
    // reason is written before the kind flag is released, so any
    // thread that observes the flag also observes the reason.
    std::lock_guard<std::mutex> lock(reasonMutex);
    if (kind.load(std::memory_order_relaxed) != CancelKind::None)
        return;
    reason = std::move(why);
    kind.store(k, std::memory_order_release);
}

void
CancelToken::cancel(std::string why)
{
    stop(CancelKind::Cancelled, std::move(why));
}

void
CancelToken::setDeadlineAfterMillis(double millis)
{
    if (millis < 0.0) {
        deadlineNs.store(kNoDeadline, std::memory_order_relaxed);
        return;
    }
    // millis == 0 arms a deadline that has already passed: the next
    // poll fails the job before it does any real work.
    const int64_t ns = nowNs() + int64_t(millis * 1e6);
    deadlineNs.store(ns, std::memory_order_relaxed);
}

void
CancelToken::expireNow()
{
    stop(CancelKind::DeadlineExceeded, "deadline exceeded");
}

bool
CancelToken::expireIfPastDeadline()
{
    if (kind.load(std::memory_order_acquire) != CancelKind::None)
        return false;
    const int64_t dl = deadlineNs.load(std::memory_order_relaxed);
    if (dl == kNoDeadline || nowNs() < dl)
        return false;
    std::lock_guard<std::mutex> lock(reasonMutex);
    if (kind.load(std::memory_order_relaxed) != CancelKind::None)
        return false;
    reason = "deadline exceeded";
    kind.store(CancelKind::DeadlineExceeded, std::memory_order_release);
    return true;
}

CancelKind
CancelToken::stopKind() const
{
    const CancelKind own = kind.load(std::memory_order_acquire);
    if (own != CancelKind::None)
        return own;
    return chain ? chain->stopKind() : CancelKind::None;
}

Status
CancelToken::status() const
{
    const CancelKind own = kind.load(std::memory_order_acquire);
    if (own == CancelKind::None)
        return chain ? chain->status() : Status::okStatus();
    std::string why;
    {
        std::lock_guard<std::mutex> lock(reasonMutex);
        why = reason;
    }
    if (own == CancelKind::DeadlineExceeded)
        return Status::deadlineExceeded(why);
    return Status::cancelled(why);
}

void
pollCancellation()
{
    const CancelToken *token = detail::t_activeCancelToken;
    if (!token || !token->stopRequested())
        return;
    Status st = token->status();
    if (st.ok()) {
        // stopRequested() raced a stop() that has set the kind but not
        // yet published the reason; report generically rather than
        // returning to the simulation loop.
        st = Status::cancelled("cancel requested");
    }
    throw CancelledError(std::move(st));
}

} // namespace mlpsim
