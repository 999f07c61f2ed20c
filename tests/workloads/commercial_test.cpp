/** @file Calibration bands of the three commercial-workload
 *  synthesizers against the paper's published characteristics. The
 *  bands are deliberately loose: they catch structural regressions,
 *  not statistical noise. */
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/mlpsim.hh"
#include "trace/trace_stats.hh"
#include "workloads/factory.hh"

namespace mlpsim::test {

using core::IssueConfig;
using core::MlpConfig;

namespace {

constexpr uint64_t warmupInsts = 400'000;
constexpr uint64_t measureInsts = 600'000;

struct Prepared
{
    std::unique_ptr<trace::TraceBuffer> buffer;
    std::unique_ptr<core::AnnotatedTrace> annotated;
    trace::TraceMix mix;
};

const Prepared &
prepared(const std::string &name)
{
    static std::map<std::string, Prepared> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
        Prepared p;
        auto generator = workloads::makeWorkload(name);
        p.buffer = std::make_unique<trace::TraceBuffer>(name);
        p.buffer->fill(*generator, warmupInsts + measureInsts);
        core::AnnotationOptions opts;
        opts.warmupInsts = warmupInsts;
        p.annotated = std::make_unique<core::AnnotatedTrace>(
            core::AnnotatedTrace::make(*p.buffer, opts).orFatal());
        p.mix = trace::measureMix(*p.buffer, p.buffer->size());
        it = cache.emplace(name, std::move(p)).first;
    }
    return it->second;
}

double
mlpOf(const std::string &name, MlpConfig cfg)
{
    cfg.warmupInsts = warmupInsts;
    return core::runMlp(cfg, prepared(name).annotated->context()).mlp();
}

} // namespace

// ---- instruction mix ------------------------------------------------

TEST(CommercialMix, LoadFractionsAreProgramLike)
{
    for (const auto &name : workloads::commercialWorkloadNames()) {
        const auto &mix = prepared(name).mix;
        EXPECT_GT(mix.fracLoads(), 0.12) << name;
        EXPECT_LT(mix.fracLoads(), 0.35) << name;
        EXPECT_GT(mix.fracBranches(), 0.02) << name;
        EXPECT_LT(mix.fracBranches(), 0.12) << name;
        EXPECT_GT(mix.fracStores(), 0.003) << name;
    }
}

TEST(CommercialMix, JbbHasCasaDensityLikeThePaper)
{
    // Paper: CASA > 0.6% of the dynamic instructions in SPECjbb2000.
    const auto &mix = prepared("specjbb2000").mix;
    EXPECT_GT(mix.fracSerializing(), 0.005);
    EXPECT_LT(mix.fracSerializing(), 0.015);
}

TEST(CommercialMix, OnlyWebCarriesPrefetches)
{
    EXPECT_GT(prepared("specweb99").mix.fracPrefetches(), 0.0005);
    EXPECT_DOUBLE_EQ(prepared("database").mix.fracPrefetches(), 0.0);
    EXPECT_DOUBLE_EQ(prepared("specjbb2000").mix.fracPrefetches(), 0.0);
}

// ---- Table 1 miss-rate bands ----------------------------------------

TEST(CommercialMissRate, DatabaseNearPaper)
{
    const double rate =
        prepared("database").annotated->misses().missRatePer100();
    EXPECT_GT(rate, 0.5);
    EXPECT_LT(rate, 1.2); // paper 0.84
}

TEST(CommercialMissRate, JbbNearPaper)
{
    const double rate =
        prepared("specjbb2000").annotated->misses().missRatePer100();
    EXPECT_GT(rate, 0.10);
    EXPECT_LT(rate, 0.40); // paper 0.19
}

TEST(CommercialMissRate, WebNearPaper)
{
    const double rate =
        prepared("specweb99").annotated->misses().missRatePer100();
    EXPECT_GT(rate, 0.02);
    EXPECT_LT(rate, 0.15); // paper 0.09
}

TEST(CommercialMissRate, OrderingMatchesPaper)
{
    const double db =
        prepared("database").annotated->misses().missRatePer100();
    const double jbb =
        prepared("specjbb2000").annotated->misses().missRatePer100();
    const double web =
        prepared("specweb99").annotated->misses().missRatePer100();
    EXPECT_GT(db, jbb);
    EXPECT_GT(jbb, web);
}

// ---- instruction-side structure --------------------------------------

TEST(CommercialISide, DatabaseAndWebMissInstructions)
{
    EXPECT_GT(prepared("database").annotated->misses().fetchMisses,
              100u);
    EXPECT_GT(prepared("specweb99").annotated->misses().fetchMisses,
              20u);
}

TEST(CommercialISide, JbbCodeFitsTheL2)
{
    const auto &m = prepared("specjbb2000").annotated->misses();
    EXPECT_LT(double(m.fetchMisses), 0.05 * double(m.loadMisses) + 20);
}

// ---- branch and value prediction -------------------------------------

TEST(CommercialBranches, MispredictRatesAreSane)
{
    for (const auto &name : workloads::commercialWorkloadNames()) {
        const double rate =
            prepared(name).annotated->branches().mispredictRate();
        EXPECT_GT(rate, 0.01) << name;
        EXPECT_LT(rate, 0.30) << name;
    }
}

TEST(CommercialValues, CorrectFractionsTrackTable6)
{
    // Paper Table 6 correct%: db 42, jbb 20, web 25.
    const double db =
        prepared("database").annotated->values().fracCorrect();
    const double jbb =
        prepared("specjbb2000").annotated->values().fracCorrect();
    const double web =
        prepared("specweb99").annotated->values().fracCorrect();
    EXPECT_NEAR(db, 0.42, 0.12);
    EXPECT_NEAR(jbb, 0.20, 0.10);
    EXPECT_NEAR(web, 0.25, 0.14);
    EXPECT_GT(db, jbb);
}

// ---- miss clustering (Figure 2) --------------------------------------

TEST(CommercialClustering, ObservedBeatsUniformAtSmallDistances)
{
    // Paper Figure 2: the clustering is extreme for SPECweb99 and
    // SPECjbb2000; the database workload's high miss rate means the
    // uniform curve is already steep and the two nearly coincide.
    for (const auto &name : workloads::commercialWorkloadNames()) {
        const auto &hist =
            prepared(name).annotated->misses().interMissDistance;
        const double mean = hist.mean();
        const double observed = hist.cdfAt(64);
        const double uniform = uniformInterMissCdf(mean, 64);
        if (name == "database")
            EXPECT_GT(observed, uniform - 0.05) << name;
        else
            EXPECT_GT(observed, uniform + 0.1) << name;
    }
}

// ---- headline MLP bands ----------------------------------------------

TEST(CommercialMlp, Default64CBands)
{
    EXPECT_NEAR(mlpOf("database", MlpConfig::defaultOoO()), 1.38, 0.25);
    EXPECT_NEAR(mlpOf("specjbb2000", MlpConfig::defaultOoO()), 1.13,
                0.12);
    EXPECT_NEAR(mlpOf("specweb99", MlpConfig::defaultOoO()), 1.28,
                0.25);
}

TEST(CommercialMlp, InOrderNearUnity)
{
    MlpConfig som;
    som.mode = core::CoreMode::InOrderStallOnMiss;
    for (const auto &name : workloads::commercialWorkloadNames()) {
        const double m = mlpOf(name, som);
        EXPECT_GE(m, 1.0) << name;
        EXPECT_LT(m, 1.25) << name;
    }
}

TEST(CommercialMlp, RunaheadGainsAreLarge)
{
    for (const auto &name : workloads::commercialWorkloadNames()) {
        const double base =
            mlpOf(name, MlpConfig::sized(64, IssueConfig::D));
        const double rae = mlpOf(name, MlpConfig::runahead());
        EXPECT_GT(rae, 1.3 * base) << name; // paper: +49% .. +102%
    }
}

TEST(CommercialMlp, SerializationDominatesJbbAtLargeWindows)
{
    // Paper Figures 4/5: config E breaks away for SPECjbb2000.
    const double c = mlpOf("specjbb2000",
                           MlpConfig::sized(256, IssueConfig::C));
    const double e = mlpOf("specjbb2000",
                           MlpConfig::sized(256, IssueConfig::E));
    EXPECT_GT(e, 1.15 * c);
}

TEST(CommercialMlp, WebLoadsSerializeUnderConfigA)
{
    const double a =
        mlpOf("specweb99", MlpConfig::sized(64, IssueConfig::A));
    const double c =
        mlpOf("specweb99", MlpConfig::sized(64, IssueConfig::C));
    EXPECT_GT(c, a + 0.05);
}

TEST(CommercialWorkloads, GeneratorsAreDeterministic)
{
    for (const auto &name : workloads::commercialWorkloadNames()) {
        auto a = workloads::makeWorkload(name);
        auto b = workloads::makeWorkload(name);
        trace::TraceBuffer ta(name), tb(name);
        ta.fill(*a, 20000);
        tb.fill(*b, 20000);
        ASSERT_EQ(ta.size(), tb.size());
        for (size_t i = 0; i < ta.size(); i += 61) {
            ASSERT_EQ(ta.at(i).pc, tb.at(i).pc) << name << " @" << i;
            ASSERT_EQ(ta.at(i).effAddr, tb.at(i).effAddr)
                << name << " @" << i;
        }
    }
}

/** The replay contract streamed traces rest on: two fresh generators
 *  at one seed emit the identical stream, field by field. */
class SameSeedTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SameSeedTest, FreshGeneratorsEmitTheIdenticalStream)
{
    constexpr uint64_t kInsts = 50'000;
    const std::string &name = GetParam();
    for (const uint64_t seed :
         {workloads::presetSeed(name), workloads::workloadSeed(name)}) {
        auto a = workloads::makeWorkload(name, seed);
        auto b = workloads::makeWorkload(name, seed);
        trace::Instruction x, y;
        for (uint64_t i = 0; i < kInsts; ++i) {
            ASSERT_TRUE(a->next(x));
            ASSERT_TRUE(b->next(y));
            ASSERT_TRUE(x.pc == y.pc && x.effAddr == y.effAddr &&
                        x.rawMeta() == y.rawMeta() &&
                        x.rawPayload() == y.rawPayload() &&
                        x.dst == y.dst && x.src[0] == y.src[0] &&
                        x.src[1] == y.src[1] && x.src[2] == y.src[2])
                << "seed " << seed << " @" << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, SameSeedTest,
    ::testing::ValuesIn(workloads::commercialWorkloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(WorkloadSelection, NoFlagSelectsEveryWorkloadInPaperOrder)
{
    auto names = workloads::selectWorkloads(std::nullopt);
    ASSERT_TRUE(names.ok()) << names.status().toString();
    EXPECT_EQ(*names, workloads::commercialWorkloadNames());
}

TEST(WorkloadSelection, FlagSelectsOnlyTheNamedWorkload)
{
    auto names = workloads::selectWorkloads("specweb99");
    ASSERT_TRUE(names.ok()) << names.status().toString();
    EXPECT_EQ(*names, std::vector<std::string>{"specweb99"});
}

TEST(WorkloadSelection, TypoIsNotFoundNotAnEmptySelection)
{
    auto names = workloads::selectWorkloads("databse");
    ASSERT_FALSE(names.ok());
    EXPECT_EQ(names.status().code(), ErrorCode::NotFound);
    EXPECT_NE(names.status().message().find("unknown workload 'databse'"),
              std::string::npos);
}

TEST(CommercialWorkloadsDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT(workloads::makeWorkload("oracle"),
                ::testing::ExitedWithCode(1), "unknown workload");
}

} // namespace mlpsim::test
