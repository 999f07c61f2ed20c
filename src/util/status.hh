/**
 * @file
 * Recoverable-error types in the absl::Status / gem5 idiom.
 *
 * fatal()/panic() (logging.hh) terminate the process and are right for
 * interactive binaries where any error is the user's last word. A
 * long-running daemon serving thousands of sweep requests cannot
 * afford that: one bad request must fail *one* request,
 * descriptively, and let the daemon continue. Library code therefore
 * reports failures as Status (or Expected<T> when there is a value to
 * return) and lets the caller decide whether to recover, skip, or die.
 * Thin fatal()-on-error wrappers preserve the old terminating
 * behaviour for the existing interactive entry points.
 *
 * Conventions (see DESIGN.md "Error handling"):
 *  - Status / Expected<T>: any failure caused by *inputs* — files,
 *    flags, configuration values — that a caller may plausibly want to
 *    survive.
 *  - fatal(): top-of-main wrappers only, never in library code paths
 *    that new code might want to call recoverably.
 *  - panic()/MLPSIM_ASSERT: internal invariant violations (bugs);
 *    these stay terminating.
 */
#pragma once

#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "util/logging.hh"

namespace mlpsim {

/** Broad failure category, absl-style. */
enum class ErrorCode : uint8_t {
    Ok = 0,
    InvalidArgument,    //!< malformed flag, inconsistent configuration
    NotFound,           //!< named file / workload does not exist
    DataLoss,           //!< corrupt, truncated or tampered input data
    OutOfRange,         //!< value outside the accepted range
    IoError,            //!< OS-level read/write/rename failure
    FailedPrecondition, //!< operation invalid in the current state
    Internal,           //!< invariant violation surfaced recoverably
    Unavailable,        //!< transient resource failure; retrying may work
    Cancelled,          //!< the operation was cooperatively cancelled
    DeadlineExceeded,   //!< the operation outlived its deadline
};

/** Printable name, e.g. "data loss". */
const char *errorCodeName(ErrorCode code);

/**
 * The sweep layer's failure taxonomy: what a failed job's error code
 * says about whether running the job again could succeed.
 *
 *  - Transient: the input was fine but the environment misbehaved
 *    (Unavailable, IoError). A bounded, backed-off retry is sound.
 *  - Cancelled: the job was stopped on purpose (Cancelled,
 *    DeadlineExceeded). Retrying would defeat the cancellation.
 *  - Permanent: everything else — the same inputs will fail the same
 *    way, so a retry only wastes the sweep's time.
 */
enum class FailureClass : uint8_t { None, Transient, Permanent, Cancelled };

FailureClass failureClass(ErrorCode code);
const char *failureClassName(FailureClass fc);

/** Shorthand for failureClass(code) == FailureClass::Transient. */
bool isRetryable(ErrorCode code);

/**
 * An error code plus a human-readable message with a context chain.
 * Default-constructed Status is OK. Functions returning Status must
 * have the result inspected ([[nodiscard]]).
 */
class [[nodiscard]] Status
{
  public:
    /** OK (success). */
    Status() = default;

    Status(ErrorCode error_code, std::string error_message)
        : ec(error_code), msg(std::move(error_message))
    {
    }

    /** Factory for an explicit success return. */
    static Status okStatus() { return {}; }

    template <typename... Args>
    static Status
    invalidArgument(Args &&...args)
    {
        return Status(ErrorCode::InvalidArgument,
                      detail::concat(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    notFound(Args &&...args)
    {
        return Status(ErrorCode::NotFound,
                      detail::concat(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    dataLoss(Args &&...args)
    {
        return Status(ErrorCode::DataLoss,
                      detail::concat(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    outOfRange(Args &&...args)
    {
        return Status(ErrorCode::OutOfRange,
                      detail::concat(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    ioError(Args &&...args)
    {
        return Status(ErrorCode::IoError,
                      detail::concat(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    failedPrecondition(Args &&...args)
    {
        return Status(ErrorCode::FailedPrecondition,
                      detail::concat(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    internal(Args &&...args)
    {
        return Status(ErrorCode::Internal,
                      detail::concat(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    unavailable(Args &&...args)
    {
        return Status(ErrorCode::Unavailable,
                      detail::concat(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    cancelled(Args &&...args)
    {
        return Status(ErrorCode::Cancelled,
                      detail::concat(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    deadlineExceeded(Args &&...args)
    {
        return Status(ErrorCode::DeadlineExceeded,
                      detail::concat(std::forward<Args>(args)...));
    }

    bool ok() const { return ec == ErrorCode::Ok; }
    ErrorCode code() const { return ec; }
    const std::string &message() const { return msg; }

    /** "data loss: reading 'x.trace': record 7: bad CRC". */
    std::string toString() const;

    /**
     * Prepend a context frame ("<context>: <message>") so errors read
     * outermost-operation-first as they propagate up the stack.
     * No-op on an OK status.
     */
    template <typename... Args>
    Status
    withContext(Args &&...args) &&
    {
        if (!ok())
            msg = detail::concat(std::forward<Args>(args)...) + ": " + msg;
        return std::move(*this);
    }

    /** Terminate via fatal() unless OK; for top-of-main wrappers. */
    void orFatal() const
    {
        if (!ok())
            fatal(toString());
    }

  private:
    ErrorCode ec = ErrorCode::Ok;
    std::string msg;
};

/**
 * Either a T or the Status explaining why there is none
 * (absl::StatusOr<T> analogue).
 */
template <typename T>
class [[nodiscard]] Expected
{
  public:
    /** Success. Implicit so functions can `return value;`. */
    Expected(T value) : val(std::move(value)) {}

    /** Failure. The status must not be OK (that would carry no T). */
    Expected(Status error) : st(std::move(error))
    {
        MLPSIM_ASSERT(!st.ok(),
                      "Expected<T> constructed from an OK status");
    }

    bool ok() const { return val.has_value(); }

    /** OK status when holding a value, the error otherwise. */
    const Status &status() const { return st; }

    const T &
    value() const &
    {
        MLPSIM_ASSERT(ok(), "value() on failed Expected: ",
                      st.toString());
        return *val;
    }

    T &
    value() &
    {
        MLPSIM_ASSERT(ok(), "value() on failed Expected: ",
                      st.toString());
        return *val;
    }

    T &&
    value() &&
    {
        MLPSIM_ASSERT(ok(), "value() on failed Expected: ",
                      st.toString());
        return *std::move(val);
    }

    T
    valueOr(T def) const &
    {
        return ok() ? *val : std::move(def);
    }

    const T &operator*() const & { return value(); }
    T &operator*() & { return value(); }
    T &&operator*() && { return std::move(*this).value(); }
    const T *operator->() const { return &value(); }
    T *operator->() { return &value(); }

    /** Unwrap or terminate via fatal(); for top-of-main wrappers. */
    T
    orFatal() &&
    {
        if (!ok())
            fatal(st.toString());
        return *std::move(val);
    }

    /** Add a context frame to the error (no-op on success). */
    template <typename... Args>
    Expected
    withContext(Args &&...args) &&
    {
        if (!ok())
            st = std::move(st).withContext(std::forward<Args>(args)...);
        return std::move(*this);
    }

  private:
    std::optional<T> val;
    Status st;
};

/**
 * A Status carried across an exception boundary. Sweep job bodies run
 * under layers (bench helpers, fatal()-on-error wrappers) that do not
 * thread Status returns through; throwing StatusError lets a job fail
 * with a *classified* error — SweepRunner catches it, keeps the Status
 * for its failure records, and applies the retry taxonomy above —
 * where a plain std::exception would be recorded as Permanent/Internal.
 * A cancelled or overdue job unwinds with one too (pollCancellation()).
 */
class StatusError : public std::exception
{
  public:
    explicit StatusError(Status status)
        : st(std::move(status)), text(st.toString())
    {
        MLPSIM_ASSERT(!st.ok(), "StatusError constructed from OK status");
    }

    const Status &status() const { return st; }
    const char *what() const noexcept override { return text.c_str(); }

  private:
    Status st;
    std::string text;
};

/** Propagate a failed Status out of a Status-returning function. */
#define MLPSIM_RETURN_IF_ERROR(expr)                      \
    do {                                                  \
        ::mlpsim::Status status_ = (expr);                \
        if (!status_.ok())                                \
            return status_;                               \
    } while (0)

#define MLPSIM_CONCAT_IMPL_(a, b) a##b
#define MLPSIM_CONCAT_(a, b) MLPSIM_CONCAT_IMPL_(a, b)

/**
 * Evaluate an Expected<T> expression; on failure propagate its Status,
 * on success bind the value to @p lhs (a declaration or assignable).
 */
#define MLPSIM_ASSIGN_OR_RETURN(lhs, expr)                             \
    MLPSIM_ASSIGN_OR_RETURN_IMPL_(                                     \
        MLPSIM_CONCAT_(expected_tmp_, __COUNTER__), lhs, expr)

#define MLPSIM_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr)                  \
    auto tmp = (expr);                                                 \
    if (!tmp.ok())                                                     \
        return std::move(tmp).status();                                \
    lhs = *std::move(tmp)

} // namespace mlpsim
