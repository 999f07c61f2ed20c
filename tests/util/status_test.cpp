/** @file Recoverable-error layer: Status, Expected and the macros. */
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "util/status.hh"

namespace mlpsim::test {

TEST(Status, OkIsOk)
{
    const Status ok = Status::okStatus();
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.code(), ErrorCode::Ok);
    EXPECT_EQ(ok.toString(), "ok");
}

TEST(Status, FactoriesFormatVariadicMessages)
{
    const Status st = Status::invalidArgument("got ", 42, " of ", 7);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), ErrorCode::InvalidArgument);
    EXPECT_EQ(st.message(), "got 42 of 7");
    EXPECT_NE(st.toString().find("invalid argument"),
              std::string::npos);
}

TEST(Status, ContextChainsOutsideIn)
{
    Status st = Status::dataLoss("bad byte");
    st = std::move(st).withContext("record ", 3);
    st = std::move(st).withContext("reading 'x.trace'");
    EXPECT_EQ(st.message(), "reading 'x.trace': record 3: bad byte");
    EXPECT_EQ(st.code(), ErrorCode::DataLoss);
}

TEST(Status, EveryCodeHasAName)
{
    for (ErrorCode code : {ErrorCode::InvalidArgument,
                           ErrorCode::NotFound, ErrorCode::DataLoss,
                           ErrorCode::OutOfRange, ErrorCode::IoError,
                           ErrorCode::FailedPrecondition,
                           ErrorCode::Internal}) {
        EXPECT_STRNE(errorCodeName(code), "");
    }
}

TEST(FailureClassTest, TaxonomyBucketsAreCorrect)
{
    EXPECT_EQ(failureClass(ErrorCode::Ok), FailureClass::None);
    EXPECT_EQ(failureClass(ErrorCode::Unavailable),
              FailureClass::Transient);
    EXPECT_EQ(failureClass(ErrorCode::IoError), FailureClass::Transient);
    EXPECT_EQ(failureClass(ErrorCode::Cancelled), FailureClass::Cancelled);
    EXPECT_EQ(failureClass(ErrorCode::DeadlineExceeded),
              FailureClass::Cancelled);
    EXPECT_EQ(failureClass(ErrorCode::InvalidArgument),
              FailureClass::Permanent);
    EXPECT_EQ(failureClass(ErrorCode::DataLoss), FailureClass::Permanent);
    EXPECT_EQ(failureClass(ErrorCode::Internal), FailureClass::Permanent);

    EXPECT_TRUE(isRetryable(ErrorCode::Unavailable));
    EXPECT_TRUE(isRetryable(ErrorCode::IoError));
    EXPECT_FALSE(isRetryable(ErrorCode::Cancelled));
    EXPECT_FALSE(isRetryable(ErrorCode::DataLoss));
    EXPECT_FALSE(isRetryable(ErrorCode::Ok));
}

TEST(Expected, HoldsValueOrStatus)
{
    Expected<int> good = 7;
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(*good, 7);
    EXPECT_EQ(good.valueOr(9), 7);

    Expected<int> bad = Status::notFound("nope");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.valueOr(9), 9);
    EXPECT_EQ(bad.status().code(), ErrorCode::NotFound);
}

TEST(Expected, MovesValueOut)
{
    Expected<std::string> s = std::string(100, 'x');
    const std::string moved = *std::move(s);
    EXPECT_EQ(moved.size(), 100u);
}

TEST(Expected, ContextWrapsTheError)
{
    Expected<int> bad = Status::ioError("short read");
    const auto wrapped = std::move(bad).withContext("loading");
    ASSERT_FALSE(wrapped.ok());
    EXPECT_EQ(wrapped.status().message(), "loading: short read");
}

namespace {

Status
failsThrough()
{
    MLPSIM_RETURN_IF_ERROR(Status::internal("inner failure"));
    return Status::okStatus();
}

Expected<int>
doublesOrFails(Expected<int> input)
{
    MLPSIM_ASSIGN_OR_RETURN(const int v, std::move(input));
    return 2 * v;
}

} // namespace

TEST(StatusMacros, ReturnIfErrorPropagates)
{
    const Status st = failsThrough();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), ErrorCode::Internal);
}

TEST(StatusMacros, AssignOrReturnUnwrapsAndPropagates)
{
    const auto good = doublesOrFails(21);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(*good, 42);

    const auto bad = doublesOrFails(Status::outOfRange("too big"));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::OutOfRange);
}

TEST(StatusDeath, OrFatalTerminatesWithMessage)
{
    EXPECT_EXIT(Status::invalidArgument("boom detail").orFatal(),
                ::testing::ExitedWithCode(1), "boom detail");
    Expected<int> bad = Status::ioError("disk detail");
    EXPECT_EXIT(std::move(bad).orFatal(),
                ::testing::ExitedWithCode(1), "disk detail");
}

} // namespace mlpsim::test
