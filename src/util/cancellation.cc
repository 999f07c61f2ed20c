#include "cancellation.hh"

#include <algorithm>

namespace mlpsim {

int64_t
CancelToken::nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
CancelToken::setDeadlineAfterMillis(double millis)
{
    const int64_t now = nowNs();
    const double ns = millis * 1e6;
    // Negative (or NaN) is no deadline, and so is one the clock
    // cannot reach: converting it to int64 would overflow, and the
    // wrapped value would lie in the past.
    if (!(ns >= 0.0) || ns >= double(kNoDeadline - now)) {
        deadlineNs.store(kNoDeadline, std::memory_order_relaxed);
        return;
    }
    // millis == 0 arms a deadline that has already passed: the next
    // poll fails the job before it does any real work. The clamp only
    // absorbs the rounding of the range check above.
    const int64_t ahead = std::min(int64_t(ns), kNoDeadline - 1 - now);
    deadlineNs.store(now + ahead, std::memory_order_relaxed);
}

Status
CancelToken::status() const
{
    if (!expired.load())
        return Status::okStatus();
    return Status::deadlineExceeded("ran past its deadline");
}

void
pollCancellation()
{
    const CancelToken *token = detail::t_activeCancelToken;
    if (token && token->stopRequested())
        throw StatusError(token->status());
}

} // namespace mlpsim
