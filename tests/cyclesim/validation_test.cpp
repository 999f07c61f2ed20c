/** @file Integration: the timing-free epoch model must track the timed
 *  pipeline on real workloads (the paper's Table 3/4 claims). */
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>

#include "core/cpi_model.hh"
#include "core/mlpsim.hh"
#include "cyclesim/cycle_sim.hh"
#include "workloads/factory.hh"

namespace mlpsim::test {

using core::IssueConfig;
using core::MlpConfig;
using cyclesim::CycleSim;
using cyclesim::CycleSimConfig;

namespace {

constexpr uint64_t traceInsts = 120'000;

const core::AnnotatedTrace &
annotated(const std::string &name)
{
    static std::map<std::string,
                    std::pair<std::unique_ptr<trace::TraceBuffer>,
                              std::unique_ptr<core::AnnotatedTrace>>>
        cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
        auto buffer = std::make_unique<trace::TraceBuffer>(name);
        auto generator = workloads::makeWorkload(name);
        buffer->fill(*generator, traceInsts);
        auto ann = std::make_unique<core::AnnotatedTrace>(
            core::AnnotatedTrace::make(*buffer, core::AnnotationOptions{})
                .orFatal());
        it = cache.emplace(name, std::make_pair(std::move(buffer),
                                                std::move(ann)))
                 .first;
    }
    return *it->second.second;
}

} // namespace

class ValidationTest
    : public ::testing::TestWithParam<
          std::tuple<std::string, unsigned, IssueConfig>>
{
};

TEST_P(ValidationTest, EpochModelTracksTimedPipelineAtLongLatency)
{
    const auto [name, window, issue] = GetParam();
    const auto &ann = annotated(name);

    CycleSimConfig timed;
    timed.issue = issue;
    timed.issueWindowSize = window;
    timed.robSize = window;
    timed.offChipLatency = 1000;
    const double cyc = CycleSim(timed, ann.context()).run().mlp();

    const double model =
        core::runMlp(MlpConfig::sized(window, issue), ann.context())
            .mlp();

    EXPECT_NEAR(model, cyc, 0.05 + 0.05 * cyc)
        << name << " w=" << window;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ValidationTest,
    ::testing::Combine(::testing::Values("database", "specjbb2000",
                                         "specweb99"),
                       ::testing::Values(32u, 64u),
                       ::testing::Values(IssueConfig::A,
                                         IssueConfig::C)),
    [](const auto &info) {
        std::string name = std::get<0>(info.param);
        for (auto &c : name)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name + "_w" + std::to_string(std::get<1>(info.param)) +
               core::issueConfigName(std::get<2>(info.param));
    });

TEST(Validation, AgreementImprovesWithLatency)
{
    const auto &ann = annotated("database");
    const double model =
        core::runMlp(MlpConfig::defaultOoO(), ann.context()).mlp();
    double err_short = 0, err_long = 0;
    for (unsigned latency : {100u, 1000u}) {
        CycleSimConfig timed;
        timed.offChipLatency = latency;
        const double cyc = CycleSim(timed, ann.context()).run().mlp();
        (latency == 100 ? err_short : err_long) =
            std::abs(cyc - model);
    }
    EXPECT_LE(err_long, err_short + 0.01);
}

TEST(Validation, CpiEstimateTracksMeasuredCpi)
{
    // The paper's Table 4 method: estimate CPI from MLPsim numbers
    // plus CPI_perf / Overlap_CM from the timed run; compare with the
    // timed run's own CPI.
    for (const auto &name : workloads::commercialWorkloadNames()) {
        const auto &ann = annotated(name);
        CycleSimConfig perfect;
        perfect.perfectL2 = true;
        const double cpi_perf =
            CycleSim(perfect, ann.context()).run().cpi();
        CycleSimConfig timed;
        timed.offChipLatency = 1000;
        const auto measured = CycleSim(timed, ann.context()).run();
        const double overlap = core::solveOverlapCM(
            measured.cpi(), cpi_perf,
            measured.missRatePer100() / 100.0, 1000.0, measured.mlp());

        const auto model =
            core::runMlp(MlpConfig::defaultOoO(), ann.context());
        core::CpiModelParams params{cpi_perf, overlap,
                                    model.missRatePer100() / 100.0,
                                    1000.0, model.mlp()};
        const double estimated = core::estimateCpi(params);
        EXPECT_NEAR(estimated, measured.cpi(), 0.08 * measured.cpi())
            << name;
    }
}

TEST(Validation, MissRatesAgreeBetweenSimulators)
{
    for (const auto &name : workloads::commercialWorkloadNames()) {
        const auto &ann = annotated(name);
        CycleSimConfig timed;
        const auto measured = CycleSim(timed, ann.context()).run();
        const auto model =
            core::runMlp(MlpConfig::defaultOoO(), ann.context());
        EXPECT_NEAR(measured.missRatePer100(), model.missRatePer100(),
                    0.02 * model.missRatePer100() + 0.01)
            << name;
    }
}

} // namespace mlpsim::test
