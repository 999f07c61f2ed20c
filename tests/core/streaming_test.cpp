/**
 * @file
 * Streamed-vs-materialised equivalence: the streaming pipeline's
 * central guarantee is that fusing generation into consumption changes
 * *nothing* observable. The annotation planes, every simulator's
 * results and the chunking itself must be bit-identical between a
 * materialised TraceBuffer and a re-generating chunk stream, for any
 * chunk capacity.
 */
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/mlpsim.hh"
#include "core/shared_stream.hh"
#include "core/trace_pipeline.hh"
#include "cyclesim/cycle_sim.hh"
#include "trace/stream_source.hh"
#include "workloads/factory.hh"

namespace mlpsim::test {

using namespace mlpsim;

namespace {

constexpr uint64_t kInsts = 40000;
constexpr uint64_t kWarmup = 10000;

std::string
workloadName()
{
    return workloads::commercialWorkloadNames().front();
}

trace::GeneratedChunkSource
makeStream(uint32_t chunk_cap, const std::string &name = workloadName())
{
    return trace::GeneratedChunkSource(
        name, kInsts,
        [name] {
            return workloads::makeWorkload(name,
                                           workloads::workloadSeed(name));
        },
        chunk_cap);
}

core::AnnotationOptions
annotationOptions()
{
    core::AnnotationOptions opts;
    opts.warmupInsts = kWarmup;
    return opts;
}

/** The materialised reference everything is compared against. */
struct Materialised
{
    std::unique_ptr<trace::TraceBuffer> buffer;
    std::unique_ptr<core::AnnotatedTrace> annotated;

    explicit Materialised(const std::string &name = workloadName())
    {
        auto generator =
            workloads::makeWorkload(name, workloads::workloadSeed(name));
        buffer = std::make_unique<trace::TraceBuffer>(name);
        buffer->fill(*generator, kInsts);
        annotated = std::make_unique<core::AnnotatedTrace>(
            core::AnnotatedTrace::make(*buffer, annotationOptions())
                .orFatal());
    }
};

void
expectSameAnnotations(const core::AnnotatedTrace &streamed,
                      const core::AnnotatedTrace &reference)
{
    const auto &sm = streamed.misses();
    const auto &rm = reference.misses();
    EXPECT_EQ(sm.measuredInsts, rm.measuredInsts);
    EXPECT_EQ(sm.fetchMisses, rm.fetchMisses);
    EXPECT_EQ(sm.loadMisses, rm.loadMisses);
    EXPECT_EQ(sm.storeMisses, rm.storeMisses);
    EXPECT_EQ(sm.usefulPrefetches, rm.usefulPrefetches);
    EXPECT_EQ(sm.uselessPrefetches, rm.uselessPrefetches);
    ASSERT_EQ(sm.size(), rm.size());

    const auto &sb = streamed.branches();
    const auto &rb = reference.branches();
    EXPECT_EQ(sb.branches, rb.branches);
    EXPECT_EQ(sb.mispredicts, rb.mispredicts);

    const auto &sv = streamed.values();
    const auto &rv = reference.values();
    EXPECT_EQ(sv.missingLoads, rv.missingLoads);
    EXPECT_EQ(sv.correct, rv.correct);
    EXPECT_EQ(sv.wrong, rv.wrong);
    EXPECT_EQ(sv.noPredict, rv.noPredict);

    // Every per-instruction plane, bit for bit.
    for (size_t i = 0; i < rm.size(); ++i) {
        ASSERT_EQ(sm.fetchMiss(i), rm.fetchMiss(i)) << "at " << i;
        ASSERT_EQ(sm.dataMiss(i), rm.dataMiss(i)) << "at " << i;
        ASSERT_EQ(sm.usefulPrefetch(i), rm.usefulPrefetch(i)) << "at " << i;
        ASSERT_EQ(sm.dataL2Hit(i), rm.dataL2Hit(i)) << "at " << i;
        ASSERT_EQ(sm.storeMiss(i), rm.storeMiss(i)) << "at " << i;
        ASSERT_EQ(sb.isMispredict(i), rb.isMispredict(i)) << "at " << i;
        ASSERT_EQ(sv.outcome[i], rv.outcome[i]) << "at " << i;
    }
}

} // namespace

TEST(StreamingTrace, AnnotationsMatchMaterialisedForAnyChunkSize)
{
    // Chunk capacity must be result-invariant: a tiny odd size, a
    // mid-size power of two, and the default (trace fits in 3 chunks).
    // specweb99's software prefetches are credited retroactively, and
    // at 613 some credits land in an earlier chunk than their touch.
    for (const std::string &name : workloads::commercialWorkloadNames()) {
        const Materialised ref(name);
        for (const uint32_t cap :
             {613u, 4096u, trace::defaultChunkCapacity}) {
            SCOPED_TRACE(name + " at chunk capacity " +
                         std::to_string(cap));
            const auto source = makeStream(cap, name);
            const auto streamed =
                core::AnnotatedTrace::make(source, annotationOptions())
                    .orFatal();
            EXPECT_EQ(streamed.instructions(), kInsts);
            expectSameAnnotations(streamed, *ref.annotated);
        }
    }
}

TEST(StreamingTrace, ContextExposesStreamAndAnnotations)
{
    const auto source = makeStream(4096);
    const auto streamed =
        core::AnnotatedTrace::make(source, annotationOptions()).orFatal();
    const auto ctx = streamed.context();
    EXPECT_EQ(ctx.source, &source);
    EXPECT_EQ(ctx.source->materialized(), nullptr);
    EXPECT_TRUE(ctx.hasTrace());
    EXPECT_EQ(ctx.size(), kInsts);
    EXPECT_EQ(ctx.misses, &streamed.misses());
    EXPECT_EQ(ctx.branches, &streamed.branches());
    EXPECT_NE(ctx.values, nullptr);
}

TEST(StreamingTrace, EpochEngineMatchesMaterialised)
{
    const Materialised ref;
    const auto source = makeStream(4096);
    const auto streamed =
        core::AnnotatedTrace::make(source, annotationOptions()).orFatal();

    core::MlpConfig cfg = core::MlpConfig::defaultOoO();
    cfg.warmupInsts = kWarmup;
    const auto a = core::runMlp(cfg, ref.annotated->context());
    const auto b = core::runMlp(cfg, streamed.context());
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.usefulAccesses, b.usefulAccesses);
    EXPECT_EQ(a.dmissAccesses, b.dmissAccesses);
    EXPECT_EQ(a.imissAccesses, b.imissAccesses);
    EXPECT_EQ(a.pmissAccesses, b.pmissAccesses);
    EXPECT_EQ(a.smissAccesses, b.smissAccesses);
    EXPECT_EQ(a.measuredInsts, b.measuredInsts);
}

TEST(StreamingTrace, InOrderModelMatchesMaterialised)
{
    const Materialised ref;
    const auto source = makeStream(4096);
    const auto streamed =
        core::AnnotatedTrace::make(source, annotationOptions()).orFatal();

    core::MlpConfig cfg;
    cfg.mode = core::CoreMode::InOrderStallOnMiss;
    cfg.warmupInsts = kWarmup;
    const auto a = core::runMlp(cfg, ref.annotated->context());
    const auto b = core::runMlp(cfg, streamed.context());
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.usefulAccesses, b.usefulAccesses);
    EXPECT_EQ(a.measuredInsts, b.measuredInsts);
}

TEST(StreamingTrace, CycleSimMatchesMaterialised)
{
    const Materialised ref;
    const auto source = makeStream(4096);
    const auto streamed =
        core::AnnotatedTrace::make(source, annotationOptions()).orFatal();

    cyclesim::CycleSimConfig cfg;
    cfg.warmupInsts = kWarmup;
    cfg.validate().orFatal();
    const auto a = cyclesim::CycleSim(cfg, ref.annotated->context()).run();
    const auto b = cyclesim::CycleSim(cfg, streamed.context()).run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.offChipAccesses, b.offChipAccesses);
    EXPECT_EQ(a.mlpCycles, b.mlpCycles);
    EXPECT_EQ(a.mlpSum, b.mlpSum);
}

TEST(StreamingTrace, BackToBackEngineRunsReuseTheSameSource)
{
    // Pass 2 opens one fresh stream per engine run; many runs over one
    // source must all see the identical trace.
    const auto source = makeStream(4096);
    const auto streamed =
        core::AnnotatedTrace::make(source, annotationOptions()).orFatal();
    core::MlpConfig cfg = core::MlpConfig::defaultOoO();
    cfg.warmupInsts = kWarmup;
    const auto first = core::runMlp(cfg, streamed.context());
    const auto second = core::runMlp(cfg, streamed.context());
    EXPECT_EQ(first.epochs, second.epochs);
    EXPECT_EQ(first.usefulAccesses, second.usefulAccesses);
}

namespace {

std::vector<core::MlpConfig>
sampleConfigs()
{
    std::vector<core::MlpConfig> configs;
    for (const unsigned window : {16u, 32u, 64u}) {
        core::MlpConfig cfg = core::MlpConfig::defaultOoO();
        cfg.warmupInsts = kWarmup;
        cfg.robSize = window;
        configs.push_back(cfg);
    }
    return configs;
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
}

std::vector<core::SharedCell>
cellsFor(const std::vector<core::MlpConfig> &configs,
         std::vector<std::optional<core::MlpResult>> &slots)
{
    slots.assign(configs.size(), std::nullopt);
    std::vector<core::SharedCell> cells;
    for (size_t i = 0; i < configs.size(); ++i) {
        const core::MlpConfig cfg = configs[i];
        auto *slot = &slots[i];
        cells.push_back({"cell " + std::to_string(i),
                         [cfg, slot](const core::WorkloadContext &ctx) {
                             slot->emplace(core::runMlp(cfg, ctx));
                         }});
    }
    return cells;
}

} // namespace

TEST(SharedStream, SharedCellsMatchIndependentEngineRuns)
{
    const auto source = makeStream(4096);
    const auto streamed =
        core::AnnotatedTrace::make(source, annotationOptions()).orFatal();
    const auto configs = sampleConfigs();

    std::vector<core::MlpResult> independent;
    for (const core::MlpConfig &cfg : configs)
        independent.push_back(core::runMlp(cfg, streamed.context()));
    const size_t built_before_shared = source.generatorsBuilt();

    // 8: all three cells in one wave. 2: a two-cell wave, then a lone
    // trailing cell that runs on its own stream.
    for (const size_t wave : {size_t(8), size_t(2)}) {
        SCOPED_TRACE("maxConcurrent " + std::to_string(wave));
        std::vector<std::optional<core::MlpResult>> slots;
        auto cells = cellsFor(configs, slots);
        core::SharedRunOptions options;
        options.maxConcurrent = wave;
        core::runSharedCells(streamed.context(), cells, options);

        for (size_t i = 0; i < configs.size(); ++i) {
            ASSERT_TRUE(slots[i].has_value()) << "cell " << i;
            expectSameResult(*slots[i], independent[i]);
        }
        // The shared waves rode broadcast generations, so they cannot
        // have constructed more generators than the sequential runs
        // already did.
        EXPECT_EQ(source.generatorsBuilt(), built_before_shared);
    }
}

} // namespace mlpsim::test
