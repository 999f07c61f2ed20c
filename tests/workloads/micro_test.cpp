/** @file Micro-workloads: analytically known MLP behaviour and
 *  generator determinism. */
#include <gtest/gtest.h>

#include "core/mlpsim.hh"
#include "trace/trace_stats.hh"
#include "workloads/micro.hh"

namespace mlpsim::test {

using core::IssueConfig;
using core::MlpConfig;
using namespace mlpsim::workloads;

namespace {

constexpr uint64_t microInsts = 60'000;

core::MlpResult
runOn(trace::TraceSource &source, const MlpConfig &cfg)
{
    trace::TraceBuffer buf(source.name());
    buf.fill(source, microInsts);
    const auto annotated =
        core::AnnotatedTrace::make(buf, core::AnnotationOptions{}).orFatal();
    return core::runMlp(cfg, annotated.context());
}

} // namespace

TEST(MicroWorkloads, PointerChaseHasUnitMlpEverywhere)
{
    PointerChaseWorkload w;
    for (auto cfg : {MlpConfig::sized(64, IssueConfig::C),
                     MlpConfig::infinite(), MlpConfig::runahead()}) {
        w.reset();
        // Cold-start instruction misses overlap the very first data
        // misses; beyond that the chase is strictly serial.
        EXPECT_NEAR(runOn(w, cfg).mlp(), 1.0, 0.01) << cfg.label();
    }
}

class StreamCountTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(StreamCountTest, MlpEqualsStreamCount)
{
    IndependentStreamsWorkload::Params params;
    params.streams = GetParam();
    IndependentStreamsWorkload w(params);
    const double mlp = runOn(w, MlpConfig::sized(256, IssueConfig::C)).mlp();
    EXPECT_NEAR(mlp, double(GetParam()), 0.03 * GetParam() + 0.03);
}

INSTANTIATE_TEST_SUITE_P(Counts, StreamCountTest,
                         ::testing::Values(1u, 2u, 4u, 8u, 12u));

TEST(MicroWorkloads, StreamsStallOnUseVsStallOnMiss)
{
    IndependentStreamsWorkload w;
    MlpConfig som;
    som.mode = core::CoreMode::InOrderStallOnMiss;
    MlpConfig sou;
    sou.mode = core::CoreMode::InOrderStallOnUse;
    EXPECT_NEAR(runOn(w, som).mlp(), 1.0, 0.01);
    w.reset();
    EXPECT_NEAR(runOn(w, sou).mlp(), 4.0, 0.05);
}

TEST(MicroWorkloads, SerializingStormCappedByAtomicsExceptConfigE)
{
    SerializingStormWorkload w;
    const double c =
        runOn(w, MlpConfig::sized(256, IssueConfig::C)).mlp();
    w.reset();
    const double e =
        runOn(w, MlpConfig::sized(256, IssueConfig::E)).mlp();
    EXPECT_NEAR(c, 4.0, 0.2); // group size
    EXPECT_GT(e, 3.0 * c);    // config E sails past the atomics
}

TEST(MicroWorkloads, SerializingStormRunaheadIgnoresAtomics)
{
    SerializingStormWorkload w;
    const double d =
        runOn(w, MlpConfig::sized(64, IssueConfig::D)).mlp();
    w.reset();
    const double rae = runOn(w, MlpConfig::runahead()).mlp();
    EXPECT_GT(rae, 3.0 * d);
}

TEST(MicroWorkloads, PrefetchedStreamPrefetchesAreUseful)
{
    PrefetchedStreamWorkload w;
    trace::TraceBuffer buf("p");
    buf.fill(w, microInsts);
    const auto annotated =
        core::AnnotatedTrace::make(buf, core::AnnotationOptions{}).orFatal();
    const auto &m = annotated.misses();
    EXPECT_GT(m.usefulPrefetches, 1000u);
    // Nearly every prefetch is useful; the demand loads behind them
    // hit.
    EXPECT_LT(m.uselessPrefetches, m.usefulPrefetches / 20 + 10);
    EXPECT_LT(m.loadMisses, m.usefulPrefetches / 5);
}

TEST(MicroWorkloads, GeneratorsAreDeterministic)
{
    const auto dump = [](trace::TraceSource &w) {
        trace::TraceBuffer buf("x");
        buf.fill(w, 5000);
        return buf;
    };
    PointerChaseWorkload a, b;
    const auto ta = dump(a), tb = dump(b);
    ASSERT_EQ(ta.size(), tb.size());
    for (size_t i = 0; i < ta.size(); ++i) {
        ASSERT_EQ(ta.at(i).pc, tb.at(i).pc) << i;
        ASSERT_EQ(ta.at(i).effAddr, tb.at(i).effAddr) << i;
    }
}

TEST(MicroWorkloads, ResetReproducesTheStream)
{
    SerializingStormWorkload w;
    trace::TraceBuffer first("f");
    first.fill(w, 5000);
    w.reset();
    trace::TraceBuffer second("s");
    second.fill(w, 5000);
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
        ASSERT_EQ(first.at(i).effAddr, second.at(i).effAddr) << i;
        ASSERT_EQ(first.at(i).cls(), second.at(i).cls()) << i;
    }
}

TEST(MicroWorkloads, DifferentSeedsDiffer)
{
    PointerChaseWorkload::Params pa, pb;
    pa.seed = 1;
    pb.seed = 2;
    PointerChaseWorkload a(pa), b(pb);
    trace::TraceBuffer ta("a"), tb("b");
    ta.fill(a, 1000);
    tb.fill(b, 1000);
    int differing = 0;
    for (size_t i = 0; i < ta.size(); ++i)
        differing += ta.at(i).effAddr != tb.at(i).effAddr;
    EXPECT_GT(differing, 100);
}

TEST(MicroWorkloads, SerializingMixContainsAtomics)
{
    SerializingStormWorkload w;
    const auto mix = trace::measureMix(w, 20000);
    EXPECT_GT(mix.fracSerializing(), 0.01);
    EXPECT_GT(mix.fracLoads(), 0.1);
}

} // namespace mlpsim::test
