/** @file Command-line option parsing. */
#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>

#include "util/options.hh"
#include "util/parallel.hh"

namespace mlpsim::test {

namespace {

Options
parse(std::vector<std::string> args)
{
    std::vector<char *> argv;
    static std::vector<std::string> storage;
    storage = std::move(args);
    argv.push_back(const_cast<char *>("prog"));
    for (auto &s : storage)
        argv.push_back(const_cast<char *>(s.c_str()));
    return Options(int(argv.size()), argv.data());
}

Expected<Options>
tryParse(std::vector<std::string> args)
{
    std::vector<char *> argv;
    static std::vector<std::string> storage;
    storage = std::move(args);
    argv.push_back(const_cast<char *>("prog"));
    for (auto &s : storage)
        argv.push_back(const_cast<char *>(s.c_str()));
    return Options::parse(int(argv.size()), argv.data());
}

} // namespace

TEST(Options, EqualsForm)
{
    auto o = parse({"--insts=500"});
    EXPECT_TRUE(o.has("insts"));
    EXPECT_EQ(o.getU64("insts", 0), 500u);
}

TEST(Options, SpaceForm)
{
    auto o = parse({"--workload", "database"});
    EXPECT_EQ(o.getString("workload", ""), "database");
}

TEST(Options, FindTellsAnEmptyValueFromAnAbsentFlag)
{
    auto o = parse({"--workload="});
    EXPECT_EQ(o.find("workload"), std::optional<std::string>(""));
    EXPECT_EQ(o.find("insts"), std::nullopt);
}

TEST(Options, FlagWithoutValueDefaultsToOne)
{
    auto o = parse({"--verbose"});
    EXPECT_TRUE(o.has("verbose"));
    EXPECT_EQ(o.getU64("verbose", 0), 1u);
}

TEST(Options, MissingUsesDefault)
{
    auto o = parse({});
    EXPECT_FALSE(o.has("nothing"));
    EXPECT_EQ(o.getU64("nothing", 7), 7u);
    EXPECT_EQ(o.getString("nothing", "x"), "x");
    EXPECT_DOUBLE_EQ(o.getDouble("nothing", 1.5), 1.5);
}

TEST(Options, DoubleParsing)
{
    auto o = parse({"--ratio=0.25"});
    EXPECT_DOUBLE_EQ(o.getDouble("ratio", 0), 0.25);
}

TEST(Options, ScaledInstsUsesEnvScale)
{
    setenv("MLPSIM_SCALE", "0.5", 1);
    auto o = parse({});
    EXPECT_EQ(o.scaledInsts("insts", 1000), 500u);
    unsetenv("MLPSIM_SCALE");
}

TEST(Options, ExplicitValueOverridesScale)
{
    setenv("MLPSIM_SCALE", "0.5", 1);
    auto o = parse({"--insts=300"});
    EXPECT_EQ(o.scaledInsts("insts", 1000), 300u);
    unsetenv("MLPSIM_SCALE");
}

TEST(Options, MalformedNumericIsAStatusError)
{
    auto o = parse({"--insts=12x", "--ratio=fast", "--neg=-3"});
    const auto insts = o.tryGetU64("insts", 0);
    ASSERT_FALSE(insts.ok());
    EXPECT_EQ(insts.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(insts.status().message().find("--insts"),
              std::string::npos);
    EXPECT_FALSE(o.tryGetDouble("ratio", 0).ok());
    EXPECT_FALSE(o.tryGetU64("neg", 0).ok());
}

TEST(Options, NumericOverflowIsOutOfRange)
{
    auto o = parse({"--insts=99999999999999999999999"});
    const auto insts = o.tryGetU64("insts", 0);
    ASSERT_FALSE(insts.ok());
    EXPECT_EQ(insts.status().code(), ErrorCode::OutOfRange);
}

TEST(Options, TryGettersReturnDefaultWhenAbsent)
{
    auto o = parse({});
    const auto u = o.tryGetU64("missing", 42);
    ASSERT_TRUE(u.ok());
    EXPECT_EQ(*u, 42u);
    const auto d = o.tryGetDouble("missing", 2.5);
    ASSERT_TRUE(d.ok());
    EXPECT_DOUBLE_EQ(*d, 2.5);
}

TEST(Options, CheckKnownDiagnosesTypos)
{
    auto o = parse({"--instz=100", "--workload=database"});
    const Status st = o.checkKnown({"insts", "workload", "warmup"});
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("--instz"), std::string::npos);
    EXPECT_NE(st.message().find("--insts"), std::string::npos);

    auto good = parse({"--insts=100", "--workload=database"});
    EXPECT_TRUE(good.checkKnown({"insts", "workload", "warmup"}).ok());
}

TEST(Options, ParseStatusApiReportsErrors)
{
    const auto positional = tryParse({"oops"});
    ASSERT_FALSE(positional.ok());
    EXPECT_EQ(positional.status().code(), ErrorCode::InvalidArgument);

    const auto empty_name = tryParse({"--=5"});
    ASSERT_FALSE(empty_name.ok());
    EXPECT_NE(empty_name.status().message().find("empty flag name"),
              std::string::npos);
}

TEST(Options, JobLimitsCountTotalAttemptsThatFitUnsigned)
{
    auto defaults = parseJobLimits(parse({}));
    ASSERT_TRUE(defaults.ok()) << defaults.status().toString();
    EXPECT_LT(defaults->deadlineMillis, 0.0);
    EXPECT_EQ(defaults->maxAttempts, 1u);

    auto set = parseJobLimits(
        parse({"--deadline-ms=250", "--retries=4294967295"}));
    ASSERT_TRUE(set.ok()) << set.status().toString();
    EXPECT_EQ(set->deadlineMillis, 250.0);
    EXPECT_EQ(set->maxAttempts, 4294967295u);

    for (const char *bad :
         {"--retries=0", "--retries=4294967296", "--retries=x",
          "--deadline-ms=soon"}) {
        SCOPED_TRACE(bad);
        auto limits = parseJobLimits(parse({bad}));
        ASSERT_FALSE(limits.ok());
        EXPECT_EQ(limits.status().code(), ErrorCode::InvalidArgument);
    }
}

TEST(Options, JobsMustFitUnsigned)
{
    auto defaulted = parseJobs(parse({}), 2);
    ASSERT_TRUE(defaulted.ok()) << defaulted.status().toString();
    EXPECT_EQ(*defaulted, 2u);

    // 0 keeps meaning every hardware thread; UINT_MAX is the largest
    // count a SweepRunner takes.
    for (const auto &[flag, want] :
         {std::pair{"--jobs=0", 0u},
          std::pair{"--jobs=4294967295", 4294967295u}}) {
        SCOPED_TRACE(flag);
        auto jobs = parseJobs(parse({flag}), 2);
        ASSERT_TRUE(jobs.ok()) << jobs.status().toString();
        EXPECT_EQ(*jobs, want);
    }

    // Values past UINT_MAX must not wrap: 2^32 would become 0 (every
    // hardware thread), 2^32 + 1 a single thread.
    for (const char *bad :
         {"--jobs=4294967296", "--jobs=4294967297", "--jobs=x"}) {
        SCOPED_TRACE(bad);
        auto jobs = parseJobs(parse({bad}), 2);
        ASSERT_FALSE(jobs.ok());
        EXPECT_EQ(jobs.status().code(), ErrorCode::InvalidArgument);
    }
}

TEST(OptionsDeath, PositionalArgumentIsFatal)
{
    EXPECT_EXIT(parse({"oops"}), ::testing::ExitedWithCode(1),
                "positional");
}

TEST(OptionsDeath, BadScaleIsFatal)
{
    setenv("MLPSIM_SCALE", "-1", 1);
    EXPECT_EXIT(parse({}), ::testing::ExitedWithCode(1), "positive");
    unsetenv("MLPSIM_SCALE");
}

TEST(OptionsDeath, ZeroScaleIsFatal)
{
    setenv("MLPSIM_SCALE", "0", 1);
    EXPECT_EXIT(parse({}), ::testing::ExitedWithCode(1), "positive");
    unsetenv("MLPSIM_SCALE");
}

TEST(OptionsDeath, MalformedScaleIsFatal)
{
    setenv("MLPSIM_SCALE", "fast", 1);
    EXPECT_EXIT(parse({}), ::testing::ExitedWithCode(1),
                "MLPSIM_SCALE");
    unsetenv("MLPSIM_SCALE");
}

TEST(OptionsDeath, MalformedNumericIsFatal)
{
    EXPECT_EXIT(parse({"--insts=12x"}).getU64("insts", 0),
                ::testing::ExitedWithCode(1),
                "not an unsigned integer");
}

TEST(OptionsDeath, UnknownFlagIsFatal)
{
    EXPECT_EXIT(parse({"--instz=5"}).rejectUnknown({"insts"}),
                ::testing::ExitedWithCode(1), "unknown flag");
}

} // namespace mlpsim::test
