/**
 * @file
 * EpochPassEquivalence: the one-pass epoch engine against the phase
 * loop it replaced (tests/core/epoch_reference.hh). Every MlpResult
 * field, the loop_iterations counter and the epoch_insts histogram
 * must match exactly, over seeded random traces that mix quiet
 * stretches with data misses, instruction misses, useful prefetches,
 * mispredicted branches, serializers, atomics and store-to-load
 * forwarding, under window corners, fetch buffers, the epoch horizon,
 * runahead, the finite store buffer and value prediction.
 */
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/mlpsim.hh"
#include "core/result_json.hh"
#include "metrics/registry.hh"
#include "tests/core/epoch_reference.hh"
#include "util/rng.hh"

namespace mlpsim::test {
namespace {

using core::CoreMode;
using core::IssueConfig;
using core::MlpConfig;
using predictor::ValueOutcome;

/** A generated trace with hand-set annotations. */
struct RandomTrace
{
    trace::TraceBuffer buffer{"random"};
    memory::MissAnnotations misses;
    branch::BranchAnnotations branches;
    predictor::ValueAnnotations values;

    core::WorkloadContext
    context() const
    {
        core::WorkloadContext ctx;
        ctx.source = &buffer;
        ctx.misses = &misses;
        ctx.branches = &branches;
        ctx.values = &values;
        return ctx;
    }
};

/** How often each kind of event appears in an eventful stretch. */
struct Mix
{
    unsigned missPct = 30;     //!< loads and atomics that miss
    unsigned imissPct = 3;     //!< instructions whose fetch misses
    unsigned mispredPct = 20;  //!< branches that mispredict
    unsigned quietMax = 150;   //!< longest event-free stretch
    unsigned busyMax = 60;     //!< longest eventful stretch
};

/**
 * @p n instructions in alternating stretches: quiet ones (ALU ops and
 * branches, with the odd mispredict or serializer, never an off-chip
 * access) and eventful ones drawn from every instruction class. Twelve
 * registers and sixteen addresses keep dependences and store-to-load
 * forwarding frequent.
 */
std::unique_ptr<RandomTrace>
makeRandomTrace(uint64_t seed, size_t n, const Mix &mix)
{
    Rng rng(seed);
    auto out = std::make_unique<RandomTrace>();
    out->misses.resetForBuild(n);
    out->branches.mispredicted.assign(n, 0);
    out->values.outcome.assign(n, ValueOutcome::NotApplicable);

    auto pct = [&](unsigned p) { return rng.below(100) < p; };
    auto reg = [&]() { return uint8_t(1 + rng.below(12)); };
    auto src = [&]() { return pct(70) ? reg() : trace::noReg; };
    auto addr = [&]() { return 0x10000 + 8 * rng.below(16); };

    size_t quiet_left = 0, busy_left = 0;
    for (size_t i = 0; i < n; ++i) {
        if (quiet_left == 0 && busy_left == 0) {
            quiet_left = rng.below(mix.quietMax + 1);
            busy_left = 1 + rng.below(mix.busyMax);
        }
        const bool quiet = quiet_left != 0;
        quiet_left -= quiet;
        busy_left -= !quiet;

        const uint64_t pc = 0x1000 + 4 * i;
        const unsigned pick = unsigned(rng.below(100));
        if (quiet) {
            if (pick < 12) {
                out->buffer.append(trace::makeBranch(pc, pc + 64, pct(50),
                                                     src()));
                out->branches.mispredicted[i] = pct(mix.mispredPct / 4);
            } else if (pick < 13) {
                out->buffer.append(trace::makeSerializing(pc));
            } else {
                out->buffer.append(trace::makeAlu(pc, reg(), src(), src()));
            }
        } else if (pick < 30) {
            out->buffer.append(trace::makeAlu(pc, reg(), src(), src()));
        } else if (pick < 55) {
            out->buffer.append(trace::makeLoad(pc, reg(), addr(), src()));
            if (pct(mix.missPct)) {
                out->misses.markDataMiss(i);
                out->values.outcome[i] =
                    pct(50) ? ValueOutcome::Correct
                            : (pct(50) ? ValueOutcome::Wrong
                                       : ValueOutcome::NoPredict);
            }
        } else if (pick < 68) {
            out->buffer.append(
                trace::makeStore(pc, addr(), src(), src()));
            if (pct(25))
                out->misses.markStoreMiss(i);
        } else if (pick < 82) {
            out->buffer.append(trace::makeBranch(pc, pc + 64, pct(50),
                                                 src()));
            out->branches.mispredicted[i] = pct(mix.mispredPct);
        } else if (pick < 88) {
            out->buffer.append(trace::makePrefetch(pc, addr(), src()));
            if (pct(50))
                out->misses.markUsefulPrefetch(i);
        } else if (pick < 92) {
            // Half the serializers are atomics, which read and write
            // memory.
            const bool atomic = pct(50);
            out->buffer.append(
                trace::makeSerializing(pc, atomic ? addr() : 0, src()));
            if (atomic && pct(mix.missPct))
                out->misses.markDataMiss(i);
        } else {
            out->buffer.append(trace::makeAlu(pc, reg(), src()));
        }
        if (!quiet && pct(mix.imissPct))
            out->misses.markFetchMiss(i);
        if (out->buffer.at(i).isBranch()) {
            ++out->branches.branches;
            out->branches.mispredicts += out->branches.mispredicted[i];
        }
    }
    return out;
}

struct EngineOutcome
{
    core::MlpResult result;
    uint64_t loopIterations = 0;
    std::map<uint64_t, uint64_t> epochInsts;
};

EngineOutcome
runEngine(const MlpConfig &config, const core::WorkloadContext &ctx)
{
    metrics::MetricRegistry registry;
    EngineOutcome out;
    {
        metrics::CollectorScope scope(&registry);
        out.result = core::runMlp(config, ctx);
    }
    const auto snapshot = registry.snapshot();
    out.loopIterations =
        snapshot.at("core/epoch_engine/loop_iterations").counter;
    const auto it = snapshot.find("core/epoch_engine/epoch_insts");
    if (it != snapshot.end())
        out.epochInsts = it->second.hist.buckets();
    return out;
}

std::string
describe(const MlpConfig &c, uint64_t seed)
{
    std::ostringstream os;
    os << "seed " << seed << " " << core::coreModeName(c.mode) << " "
       << core::issueConfigName(c.issue) << " rob " << c.robSize
       << " iw " << c.issueWindowSize << " fb " << c.fetchBufferSize
       << " horizon " << c.epochInstHorizon << " ra "
       << c.maxRunaheadDistance << (c.valuePrediction ? " +vp" : "")
       << (c.finiteStoreBuffer ? " +sb" : "") << " warmup "
       << c.warmupInsts;
    return os.str();
}

class EpochPassEquivalence : public ::testing::Test
{
  protected:
    void SetUp() override { metrics::setEnabled(true); }
    void TearDown() override { metrics::setEnabled(false); }

    /** Compare the engine with the reference loop on every config over
     *  @p seeds random traces of @p n instructions. */
    void
    check(const std::vector<MlpConfig> &configs, unsigned seeds, size_t n,
          const Mix &mix = {})
    {
        for (unsigned s = 0; s < seeds; ++s) {
            const uint64_t seed = 1000 * n + s;
            const auto trace = makeRandomTrace(seed, n, mix);
            const core::WorkloadContext ctx = trace->context();
            for (const MlpConfig &config : configs) {
                ASSERT_TRUE(config.validate().ok()) << describe(config, seed);
                const auto want = ReferenceEpochLoop(config, ctx).run();
                const EngineOutcome got = runEngine(config, ctx);
                const std::string label = describe(config, seed);
                ASSERT_EQ(core::resultToJson(want.result).dump(),
                          core::resultToJson(got.result).dump())
                    << label;
                ASSERT_EQ(want.loopIterations, got.loopIterations) << label;
                ASSERT_EQ(want.epochInsts, got.epochInsts) << label;
            }
        }
    }
};

constexpr IssueConfig allIssues[] = {IssueConfig::A, IssueConfig::B,
                                     IssueConfig::C, IssueConfig::D,
                                     IssueConfig::E};

TEST_F(EpochPassEquivalence, WindowCornersAndFetchBuffers)
{
    const std::pair<unsigned, unsigned> windows[] = {
        {1, 1},     {3, 2},    {16, 16},  {64, 64},    {256, 16},
        {16, 256},  {64, 8},   {40, 7},   {2048, 2048}, {2048, 24}};
    std::vector<MlpConfig> configs;
    for (IssueConfig issue : allIssues) {
        for (const auto &[rob, iw] : windows) {
            for (unsigned fb : {1u, 7u, 32u, 300u}) {
                MlpConfig c;
                c.issue = issue;
                c.robSize = rob;
                c.issueWindowSize = iw;
                c.fetchBufferSize = fb;
                configs.push_back(c);
            }
        }
    }
    check(configs, 3, 700);
}

TEST_F(EpochPassEquivalence, EpochHorizon)
{
    std::vector<MlpConfig> configs;
    for (IssueConfig issue : allIssues) {
        for (unsigned window : {16u, 64u, 2048u}) {
            for (unsigned fb : {1u, 7u, 300u}) {
                for (unsigned horizon : {1u, 5u, 40u}) {
                    MlpConfig c = MlpConfig::sized(window, issue);
                    c.fetchBufferSize = fb;
                    c.epochInstHorizon = horizon;
                    configs.push_back(c);
                }
            }
        }
    }
    check(configs, 3, 600);
}

TEST_F(EpochPassEquivalence, Runahead)
{
    std::vector<MlpConfig> configs;
    for (IssueConfig issue : allIssues) {
        for (unsigned rob : {8u, 64u, 2048u}) {
            for (unsigned distance : {16u, 64u, 2048u}) {
                for (unsigned fb : {1u, 7u, 300u}) {
                    MlpConfig c = MlpConfig::runahead(rob);
                    c.issue = issue;
                    c.issueWindowSize = std::min(rob, 64u);
                    c.maxRunaheadDistance = distance;
                    c.fetchBufferSize = fb;
                    configs.push_back(c);
                    c.epochInstHorizon = 40;
                    c.issueWindowSize = std::min(rob, 6u);
                    configs.push_back(c);
                }
            }
        }
    }
    check(configs, 3, 600);
}

TEST_F(EpochPassEquivalence, StoreBufferValuePredictionAndWarmup)
{
    std::vector<MlpConfig> configs;
    for (IssueConfig issue : allIssues) {
        for (unsigned window : {4u, 64u, 512u}) {
            for (unsigned fb : {7u, 32u}) {
                MlpConfig c = MlpConfig::sized(window, issue);
                c.fetchBufferSize = fb;
                c.finiteStoreBuffer = true;
                configs.push_back(c);
                c.valuePrediction = true;
                configs.push_back(c);
                c.finiteStoreBuffer = false;
                c.warmupInsts = 150;
                configs.push_back(c);
                c.mode = CoreMode::Runahead;
                c.finiteStoreBuffer = true;
                c.maxRunaheadDistance = 64;
                configs.push_back(c);
            }
        }
    }
    check(configs, 3, 600);
}

TEST_F(EpochPassEquivalence, DenseEventsAndLongQuietStretches)
{
    std::vector<MlpConfig> configs;
    for (IssueConfig issue : allIssues) {
        for (unsigned window : {1u, 16u, 128u}) {
            for (unsigned fb : {1u, 7u, 32u}) {
                MlpConfig c = MlpConfig::sized(window, issue);
                c.fetchBufferSize = fb;
                configs.push_back(c);
                c.issueWindowSize = std::max(1u, window / 4);
                configs.push_back(c);
            }
        }
        MlpConfig ra = MlpConfig::runahead(256);
        ra.issue = issue;
        configs.push_back(ra);
    }
    Mix dense;
    dense.missPct = 70;
    dense.imissPct = 10;
    dense.mispredPct = 40;
    dense.quietMax = 3;
    check(configs, 2, 500, dense);
    Mix sparse;
    sparse.missPct = 20;
    sparse.imissPct = 2;
    sparse.quietMax = 3000;
    sparse.busyMax = 8;
    check(configs, 2, 6000, sparse);
}

} // namespace
} // namespace mlpsim::test
