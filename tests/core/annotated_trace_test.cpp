/** @file The AnnotatedTrace facade: option plumbing and context
 *  wiring. */
#include <gtest/gtest.h>

#include "core/mlpsim.hh"
#include "workloads/micro.hh"

namespace mlpsim::test {

using namespace mlpsim;

namespace {

trace::TraceBuffer
smallTrace()
{
    workloads::SerializingStormWorkload w;
    trace::TraceBuffer buf("storm");
    buf.fill(w, 30000);
    return buf;
}

core::AnnotatedTrace
annotate(const trace::TraceBuffer &buf, const core::AnnotationOptions &opts)
{
    return core::AnnotatedTrace::make(buf, opts).orFatal();
}

} // namespace

TEST(AnnotatedTrace, ContextPointsAtAllAnnotations)
{
    const auto buf = smallTrace();
    const auto annotated = annotate(buf, core::AnnotationOptions{});
    const auto ctx = annotated.context();
    EXPECT_EQ(ctx.source, &buf);
    EXPECT_EQ(ctx.source->materialized(), &buf);
    EXPECT_EQ(ctx.misses, &annotated.misses());
    EXPECT_EQ(ctx.branches, &annotated.branches());
    EXPECT_NE(ctx.values, nullptr);
    EXPECT_EQ(ctx.size(), buf.size());
}

TEST(AnnotatedTrace, ValuesCanBeSkipped)
{
    const auto buf = smallTrace();
    core::AnnotationOptions opts;
    opts.buildValues = false;
    const auto annotated = annotate(buf, opts);
    EXPECT_EQ(annotated.context().values, nullptr);
}

TEST(AnnotatedTrace, PerfectHierarchyOptionRemovesImisses)
{
    const auto buf = smallTrace();
    core::AnnotationOptions opts;
    opts.hierarchy.perfectInstFetch = true;
    const auto annotated = annotate(buf, opts);
    EXPECT_EQ(annotated.misses().fetchMisses, 0u);
}

TEST(AnnotatedTrace, PerfectBranchOptionRemovesMispredicts)
{
    const auto buf = smallTrace();
    core::AnnotationOptions opts;
    opts.branch.perfect = true;
    const auto annotated = annotate(buf, opts);
    EXPECT_EQ(annotated.branches().mispredicts, 0u);
}

TEST(AnnotatedTrace, PerfectValueOptionMakesEverythingCorrect)
{
    const auto buf = smallTrace();
    core::AnnotationOptions opts;
    opts.value.perfect = true;
    const auto annotated = annotate(buf, opts);
    const auto &v = annotated.values();
    EXPECT_GT(v.missingLoads, 0u);
    EXPECT_EQ(v.correct, v.missingLoads);
}

TEST(AnnotatedTrace, SmallerL2RaisesMissRate)
{
    const auto buf = smallTrace();
    core::AnnotationOptions small;
    small.hierarchy.l2.sizeBytes = 256 * 1024;
    core::AnnotationOptions big;
    big.hierarchy.l2.sizeBytes = 8 * 1024 * 1024;
    const auto a = annotate(buf, small);
    const auto b = annotate(buf, big);
    EXPECT_GE(a.misses().usefulAccesses(),
              b.misses().usefulAccesses());
}

TEST(RunMlpFacade, DispatchesByMode)
{
    const auto buf = smallTrace();
    const auto annotated = annotate(buf, core::AnnotationOptions{});
    core::MlpConfig som;
    som.mode = core::CoreMode::InOrderStallOnMiss;
    const auto in_order = core::runMlp(som, annotated.context());
    const auto ooo = core::runMlp(core::MlpConfig::defaultOoO(),
                                  annotated.context());
    EXPECT_GT(ooo.mlp(), in_order.mlp());
    // Both account for every useful access.
    EXPECT_EQ(in_order.usefulAccesses, ooo.usefulAccesses);
}

TEST(RunMlpFacade, WarmupMustMatchAnnotationsForFullCoverage)
{
    // Documented contract: the engine's warmupInsts should equal the
    // annotation warm-up. This test pins the behaviour when they do.
    const auto buf = smallTrace();
    core::AnnotationOptions opts;
    opts.warmupInsts = 10000;
    const auto annotated = annotate(buf, opts);
    core::MlpConfig cfg = core::MlpConfig::defaultOoO();
    cfg.warmupInsts = 10000;
    const auto r = core::runMlp(cfg, annotated.context());
    EXPECT_EQ(r.measuredInsts, buf.size() - 10000);
    EXPECT_NEAR(double(r.usefulAccesses),
                double(annotated.misses().usefulAccesses()),
                0.02 * double(annotated.misses().usefulAccesses()) + 8);
}

} // namespace mlpsim::test
