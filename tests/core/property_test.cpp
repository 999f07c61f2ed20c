/** @file Cross-configuration properties of the epoch model, swept over
 *  the three commercial workloads (parameterised): monotonicity,
 *  config ordering, conservation, runahead/INF equivalence, limit-
 *  study invariants. */
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>

#include "core/mlpsim.hh"
#include "workloads/factory.hh"

namespace mlpsim::test {

using core::Inhibitor;
using core::IssueConfig;
using core::MlpConfig;

namespace {

constexpr uint64_t traceInsts = 150'000;

struct SharedWorkload
{
    std::unique_ptr<trace::TraceBuffer> buffer;
    std::unique_ptr<core::AnnotatedTrace> annotated;
    std::unique_ptr<core::AnnotatedTrace> perfectBp;
    std::unique_ptr<core::AnnotatedTrace> perfectI;
};

const SharedWorkload &
shared(const std::string &name)
{
    static std::map<std::string, SharedWorkload> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
        SharedWorkload w;
        w.buffer = std::make_unique<trace::TraceBuffer>(name);
        auto generator = workloads::makeWorkload(name);
        w.buffer->fill(*generator, traceInsts);
        core::AnnotationOptions opts;
        w.annotated = std::make_unique<core::AnnotatedTrace>(
            core::AnnotatedTrace::make(*w.buffer, opts).orFatal());
        core::AnnotationOptions bp_opts;
        bp_opts.branch.perfect = true;
        w.perfectBp = std::make_unique<core::AnnotatedTrace>(
            core::AnnotatedTrace::make(*w.buffer, bp_opts).orFatal());
        core::AnnotationOptions i_opts;
        i_opts.hierarchy.perfectInstFetch = true;
        w.perfectI = std::make_unique<core::AnnotatedTrace>(
            core::AnnotatedTrace::make(*w.buffer, i_opts).orFatal());
        it = cache.emplace(name, std::move(w)).first;
    }
    return it->second;
}

double
mlpOf(const std::string &name, const MlpConfig &cfg)
{
    return core::runMlp(cfg, shared(name).annotated->context()).mlp();
}

} // namespace

class WorkloadProperty : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadProperty, MlpIsAtLeastOne)
{
    for (auto ic : {IssueConfig::A, IssueConfig::C, IssueConfig::E}) {
        EXPECT_GE(mlpOf(GetParam(), MlpConfig::sized(64, ic)), 1.0);
    }
}

TEST_P(WorkloadProperty, MlpIsMonotoneInWindowSize)
{
    double prev = 0.0;
    for (unsigned w : {16u, 32u, 64u, 128u, 256u, 512u}) {
        const double m =
            mlpOf(GetParam(), MlpConfig::sized(w, IssueConfig::C));
        EXPECT_GE(m, prev - 0.02) << "window " << w;
        prev = m;
    }
}

TEST_P(WorkloadProperty, IssueConfigsAreOrdered)
{
    for (unsigned w : {32u, 64u, 128u, 256u}) {
        double prev = 0.0;
        for (auto ic : {IssueConfig::A, IssueConfig::B, IssueConfig::C,
                        IssueConfig::D, IssueConfig::E}) {
            const double m = mlpOf(GetParam(), MlpConfig::sized(w, ic));
            EXPECT_GE(m, prev - 0.02)
                << "window " << w << " config "
                << core::issueConfigName(ic);
            prev = m;
        }
    }
}

TEST_P(WorkloadProperty, EnlargingRobNeverHurts)
{
    MlpConfig cfg = MlpConfig::sized(64, IssueConfig::D);
    double prev = 0.0;
    for (unsigned mult : {1u, 2u, 4u, 8u, 16u}) {
        cfg.robSize = 64 * mult;
        const double m = mlpOf(GetParam(), cfg);
        EXPECT_GE(m, prev - 0.02) << "rob " << cfg.robSize;
        prev = m;
    }
}

TEST_P(WorkloadProperty, RunaheadMatchesInfiniteWindow)
{
    const double rae = mlpOf(GetParam(), MlpConfig::runahead());
    const double inf = mlpOf(GetParam(), MlpConfig::infinite());
    EXPECT_NEAR(rae, inf, 0.05 * inf);
}

TEST_P(WorkloadProperty, RunaheadBeatsItsBaseline)
{
    const double rae = mlpOf(GetParam(), MlpConfig::runahead());
    const double base =
        mlpOf(GetParam(), MlpConfig::sized(64, IssueConfig::D));
    EXPECT_GE(rae, base);
}

TEST_P(WorkloadProperty, InOrderOrdering)
{
    MlpConfig som;
    som.mode = core::CoreMode::InOrderStallOnMiss;
    MlpConfig sou;
    sou.mode = core::CoreMode::InOrderStallOnUse;
    const double m_som = mlpOf(GetParam(), som);
    const double m_sou = mlpOf(GetParam(), sou);
    const double m_ooo = mlpOf(GetParam(), MlpConfig::defaultOoO());
    EXPECT_GE(m_som, 1.0);
    EXPECT_GE(m_sou, m_som - 0.01);
    EXPECT_GE(m_ooo, m_sou - 0.01);
}

TEST_P(WorkloadProperty, AccessesAreConserved)
{
    // With no warm-up exclusion, every useful access annotated must be
    // counted in exactly one epoch, for any machine.
    const auto &w = shared(GetParam());
    const uint64_t expected = w.annotated->misses().usefulAccesses();
    for (auto cfg :
         {MlpConfig::sized(16, IssueConfig::A),
          MlpConfig::sized(64, IssueConfig::C), MlpConfig::infinite(),
          MlpConfig::runahead()}) {
        const auto r = core::runMlp(cfg, w.annotated->context());
        EXPECT_EQ(r.usefulAccesses, expected) << cfg.label();
    }
}

TEST_P(WorkloadProperty, InhibitorsSumToEpochs)
{
    const auto &w = shared(GetParam());
    for (auto cfg : {MlpConfig::sized(64, IssueConfig::C),
                     MlpConfig::runahead()}) {
        const auto r = core::runMlp(cfg, w.annotated->context());
        EXPECT_EQ(r.inhibitors.total(), r.epochs) << cfg.label();
    }
}

TEST_P(WorkloadProperty, DeterministicAcrossRuns)
{
    const auto &w = shared(GetParam());
    const auto a = core::runMlp(MlpConfig::defaultOoO(),
                                w.annotated->context());
    const auto b = core::runMlp(MlpConfig::defaultOoO(),
                                w.annotated->context());
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.usefulAccesses, b.usefulAccesses);
}

TEST_P(WorkloadProperty, PerfectBranchPredictionRemovesMispredEpochs)
{
    const auto &w = shared(GetParam());
    const auto r = core::runMlp(MlpConfig::sized(64, IssueConfig::C),
                                w.perfectBp->context());
    EXPECT_EQ(r.inhibitors[Inhibitor::MispredBr], 0u);
    const auto base = core::runMlp(MlpConfig::sized(64, IssueConfig::C),
                                   w.annotated->context());
    EXPECT_GE(r.mlp(), base.mlp() - 0.02);
}

TEST_P(WorkloadProperty, PerfectInstFetchRemovesImissEpochs)
{
    const auto &w = shared(GetParam());
    const auto r = core::runMlp(MlpConfig::sized(64, IssueConfig::C),
                                w.perfectI->context());
    EXPECT_EQ(r.inhibitors[Inhibitor::ImissStart], 0u);
    EXPECT_EQ(r.inhibitors[Inhibitor::ImissEnd], 0u);
    EXPECT_EQ(r.imissAccesses, 0u);
}

TEST_P(WorkloadProperty, ValuePredictionNeverHurts)
{
    const auto &w = shared(GetParam());
    for (auto base : {MlpConfig::sized(64, IssueConfig::D),
                      MlpConfig::runahead()}) {
        MlpConfig vp = base;
        vp.valuePrediction = true;
        const double without =
            core::runMlp(base, w.annotated->context()).mlp();
        const double with =
            core::runMlp(vp, w.annotated->context()).mlp();
        EXPECT_GE(with, without - 0.02) << base.label();
    }
}

TEST_P(WorkloadProperty, LargerHorizonNeverLowersMlp)
{
    MlpConfig cfg = MlpConfig::defaultOoO();
    double prev = 0.0;
    for (unsigned h : {256u, 1024u, 2048u, 8192u}) {
        cfg.epochInstHorizon = h;
        const double m = mlpOf(GetParam(), cfg);
        EXPECT_GE(m, prev - 0.02) << "horizon " << h;
        prev = m;
    }
}

TEST_P(WorkloadProperty, AccessBreakdownAddsUp)
{
    const auto &w = shared(GetParam());
    const auto r = core::runMlp(MlpConfig::defaultOoO(),
                                w.annotated->context());
    EXPECT_EQ(r.usefulAccesses,
              r.dmissAccesses + r.imissAccesses + r.pmissAccesses);
}

INSTANTIATE_TEST_SUITE_P(
    Commercial, WorkloadProperty,
    ::testing::Values("database", "specjbb2000", "specweb99"),
    [](const auto &info) {
        std::string n = info.param;
        for (auto &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

} // namespace mlpsim::test
