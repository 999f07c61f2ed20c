/**
 * @file
 * PreparedTrace::make, which builds every trace the benches, tools
 * and daemon use: both trace modes give identical simulator results,
 * an unknown workload is a Status in both, and the spec's warm-up is
 * the one every consumer sees. PreparedTrace::annotate: an annotation
 * variant shares its trace's generated trace and matches a trace made
 * afresh with the same options.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/mlpsim.hh"
#include "core/trace_pipeline.hh"
#include "trace/stream_source.hh"
#include "workloads/factory.hh"

namespace mlpsim::test {

namespace {

constexpr uint64_t kInsts = 20000;
constexpr uint64_t kWarmup = 5000;

core::TraceSpec
spec(uint32_t stream_chunk, const std::string &workload = "database")
{
    core::TraceSpec s;
    s.workload = workload;
    s.seed = workloads::workloadSeed(workload);
    s.totalInsts = kInsts;
    s.streamChunk = stream_chunk;
    s.annotation.warmupInsts = kWarmup;
    return s;
}

std::vector<core::MlpConfig>
configGrid()
{
    core::MlpConfig som;
    som.mode = core::CoreMode::InOrderStallOnMiss;
    return {core::MlpConfig::sized(32, core::IssueConfig::A),
            core::MlpConfig::sized(64, core::IssueConfig::C),
            core::MlpConfig::sized(128, core::IssueConfig::E),
            core::MlpConfig::runahead(), som};
}

void
expectSameResult(const core::MlpResult &a, const core::MlpResult &b)
{
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.usefulAccesses, b.usefulAccesses);
    EXPECT_EQ(a.dmissAccesses, b.dmissAccesses);
    EXPECT_EQ(a.imissAccesses, b.imissAccesses);
    EXPECT_EQ(a.pmissAccesses, b.pmissAccesses);
    EXPECT_EQ(a.smissAccesses, b.smissAccesses);
    EXPECT_EQ(a.measuredInsts, b.measuredInsts);
    EXPECT_EQ(a.mlp(), b.mlp());
    for (size_t i = 0; i < core::numInhibitors; ++i)
        EXPECT_EQ(a.inhibitors.count[i], b.inhibitors.count[i])
            << "inhibitor " << i;
}

/** Annotation options that each change a different substrate. */
std::vector<std::pair<std::string, core::AnnotationOptions>>
variantOptions()
{
    core::AnnotationOptions small_l2;
    small_l2.hierarchy.l2.sizeBytes = 256 * 1024;
    core::AnnotationOptions perfect;
    perfect.hierarchy.perfectInstFetch = true;
    perfect.branch.perfect = true;
    perfect.value.perfect = true;
    std::vector<std::pair<std::string, core::AnnotationOptions>> out{
        {"l2_256KB", small_l2}, {"perfect", perfect}};
    for (auto &[label, options] : out)
        options.warmupInsts = kWarmup;
    return out;
}

std::vector<core::MlpResult>
runGrid(const core::PreparedTrace &trace)
{
    std::vector<core::MlpResult> results;
    for (core::MlpConfig cfg : configGrid()) {
        cfg.warmupInsts = trace.warmupInsts();
        results.push_back(core::runMlp(cfg, trace.context()));
    }
    return results;
}

} // namespace

TEST(PreparedTrace, StreamedMatchesMaterialised)
{
    const auto materialised = core::PreparedTrace::make(spec(0)).orFatal();
    ASSERT_NE(materialised.buffer(), nullptr);
    const auto reference = runGrid(materialised);

    for (const uint32_t chunk : {7u, trace::defaultChunkCapacity}) {
        SCOPED_TRACE("chunk capacity " + std::to_string(chunk));
        const auto streamed =
            core::PreparedTrace::make(spec(chunk)).orFatal();
        EXPECT_EQ(streamed.buffer(), nullptr);
        const auto results = runGrid(streamed);
        for (size_t i = 0; i < results.size(); ++i) {
            SCOPED_TRACE("config " + std::to_string(i));
            expectSameResult(results[i], reference[i]);
        }
    }
}

TEST(PreparedTrace, UnknownWorkloadIsNotFoundInBothModes)
{
    for (const uint32_t chunk : {0u, 4096u}) {
        SCOPED_TRACE("chunk capacity " + std::to_string(chunk));
        const auto made =
            core::PreparedTrace::make(spec(chunk, "no-such-workload"));
        ASSERT_FALSE(made.ok());
        EXPECT_EQ(made.status().code(), ErrorCode::NotFound);
        EXPECT_NE(made.status().message().find("no-such-workload"),
                  std::string::npos);
    }
}

TEST(PreparedTrace, SpecWarmupReachesAnnotationsAndAccessor)
{
    for (const uint32_t chunk : {0u, 4096u}) {
        SCOPED_TRACE("chunk capacity " + std::to_string(chunk));
        const auto trace = core::PreparedTrace::make(spec(chunk)).orFatal();
        EXPECT_EQ(trace.name(), "database");
        EXPECT_EQ(trace.warmupInsts(), kWarmup);
        EXPECT_EQ(trace.annotated().options().warmupInsts, kWarmup);
        EXPECT_EQ(trace.annotated().instructions(), kInsts);
        EXPECT_EQ(trace.annotated().misses().measuredInsts,
                  kInsts - kWarmup);
        EXPECT_EQ(trace.context().size(), kInsts);
    }
}

TEST(PreparedTrace, MaterialisedVariantAddsNoGeneration)
{
    auto calls = std::make_shared<std::atomic<int>>(0);
    const core::TraceSpec s = spec(0);
    const auto trace =
        core::PreparedTrace::make(s, [calls, s] {
            ++*calls;
            return workloads::makeWorkload(s.workload, s.seed);
        }).orFatal();
    ASSERT_EQ(calls->load(), 1);
    for (const auto &[label, options] : variantOptions()) {
        SCOPED_TRACE(label);
        const auto variant = trace.annotate(label, options).orFatal();
        EXPECT_EQ(variant.buffer(), trace.buffer());
        EXPECT_EQ(variant.name(), "database");
        EXPECT_EQ(variant.variant(), label);
        runGrid(variant);
    }
    EXPECT_EQ(calls->load(), 1);
}

TEST(PreparedTrace, VariantMatchesAFreshMake)
{
    for (const uint32_t chunk : {0u, 4096u}) {
        const auto trace = core::PreparedTrace::make(spec(chunk)).orFatal();
        EXPECT_TRUE(trace.variant().empty());
        for (const auto &[label, options] : variantOptions()) {
            SCOPED_TRACE("chunk capacity " + std::to_string(chunk) + ", " +
                         label);
            const auto variant = trace.annotate(label, options).orFatal();
            core::TraceSpec fresh_spec = spec(chunk);
            fresh_spec.annotation = options;
            const auto fresh =
                core::PreparedTrace::make(fresh_spec).orFatal();
            EXPECT_EQ(variant.annotated().misses().missRatePer100(),
                      fresh.annotated().misses().missRatePer100());
            const auto results = runGrid(variant);
            const auto reference = runGrid(fresh);
            for (size_t i = 0; i < results.size(); ++i) {
                SCOPED_TRACE("config " + std::to_string(i));
                expectSameResult(results[i], reference[i]);
            }
        }
    }
}

TEST(PreparedTrace, VariantMustKeepTheWarmupAndHaveAName)
{
    for (const uint32_t chunk : {0u, 4096u}) {
        SCOPED_TRACE("chunk capacity " + std::to_string(chunk));
        const auto trace = core::PreparedTrace::make(spec(chunk)).orFatal();
        core::AnnotationOptions options = trace.annotated().options();
        options.warmupInsts = kWarmup + 1;
        const auto shifted = trace.annotate("later", options);
        ASSERT_FALSE(shifted.ok());
        EXPECT_EQ(shifted.status().code(), ErrorCode::InvalidArgument);

        const auto unnamed =
            trace.annotate("", trace.annotated().options());
        ASSERT_FALSE(unnamed.ok());
        EXPECT_EQ(unnamed.status().code(), ErrorCode::InvalidArgument);
    }
}

} // namespace mlpsim::test
