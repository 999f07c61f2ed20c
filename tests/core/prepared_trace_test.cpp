/**
 * @file
 * PreparedTrace::make, which builds every trace the benches, tools
 * and daemon use: both trace modes give identical simulator results,
 * an unknown workload is a Status in both, and the spec's warm-up is
 * the one every consumer sees. PreparedTrace::annotate: an annotation
 * variant shares its trace's generated trace and matches a trace made
 * afresh with the same options. A materialised make generates and
 * annotates in one overlapped pass, and must equal the two passes run
 * one after the other: chunk columns, annotation planes, metrics, and
 * a deadline's Status.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/mlpsim.hh"
#include "core/trace_pipeline.hh"
#include "metrics/export.hh"
#include "metrics/registry.hh"
#include "trace/stream_source.hh"
#include "util/cancellation.hh"
#include "workloads/factory.hh"
#include "support/annotation_equality.hh"

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

/** Every chunk of @p a equals @p b's, column by column up to count. */
void
expectSameChunks(const trace::TraceBuffer &a, const trace::TraceBuffer &b)
{
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.numChunks(), b.numChunks());
    for (size_t ci = 0; ci < a.numChunks(); ++ci) {
        const trace::TraceChunk &x = a.chunk(ci);
        const trace::TraceChunk &y = b.chunk(ci);
        ASSERT_EQ(x.base, y.base) << "chunk " << ci;
        ASSERT_EQ(x.count, y.count) << "chunk " << ci;
        for (uint32_t i = 0; i < x.count; ++i) {
            ASSERT_EQ(x.pc[i], y.pc[i]) << "chunk " << ci << " at " << i;
            ASSERT_EQ(x.effAddr[i], y.effAddr[i])
                << "chunk " << ci << " at " << i;
            ASSERT_EQ(x.payload[i], y.payload[i])
                << "chunk " << ci << " at " << i;
            ASSERT_EQ(x.meta[i], y.meta[i]) << "chunk " << ci << " at " << i;
            ASSERT_EQ(x.dst[i], y.dst[i]) << "chunk " << ci << " at " << i;
            ASSERT_EQ(x.src0[i], y.src0[i]) << "chunk " << ci << " at " << i;
            ASSERT_EQ(x.src1[i], y.src1[i]) << "chunk " << ci << " at " << i;
            ASSERT_EQ(x.src2[i], y.src2[i]) << "chunk " << ci << " at " << i;
        }
    }
}

/** Metric collection on for one test, off again after it. */
class CollectMetrics
{
  public:
    CollectMetrics() { metrics::setEnabled(true); }
    ~CollectMetrics() { metrics::setEnabled(false); }
    CollectMetrics(const CollectMetrics &) = delete;
    CollectMetrics &operator=(const CollectMetrics &) = delete;
};

/** The JSON snapshot, timers excluded, of what @p build records under
 *  a private registry and the label "database". */
std::string
snapshotOf(const std::function<void()> &build)
{
    metrics::MetricRegistry registry;
    {
        metrics::CollectorScope collect(&registry);
        metrics::ScopedLabel workload("database");
        build();
    }
    return metrics::toJson(registry.snapshot()).dump(2);
}

/** Threads of this process now (Linux: entries of /proc/self/task). */
size_t
threadCount()
{
    size_t n = 0;
    for ([[maybe_unused]] const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++n;
    return n;
}

/**
 * A workload generator that arms @p token's deadline as already
 * expired once it has emitted @p after instructions. It keeps
 * TraceSource's default nextBatch(), one next() per instruction.
 */
class ExpiringSource : public trace::TraceSource
{
  public:
    ExpiringSource(std::unique_ptr<trace::TraceSource> source,
                   CancelToken &cancel, uint64_t after)
        : inner(std::move(source)), token(cancel), left(after)
    {
    }

    bool
    next(trace::Instruction &inst) override
    {
        if (left > 0 && --left == 0)
            token.setDeadlineAfterMillis(0.0);
        return inner->next(inst);
    }

    std::string name() const override { return inner->name(); }

  private:
    std::unique_ptr<trace::TraceSource> inner;
    CancelToken &token;
    uint64_t left;
};

} // namespace

TEST(PreparedTrace, MaterialisedMakeEqualsFillThenAnnotate)
{
    // Three full chunks and a partial one, so the last chunk the
    // helper thread annotates is not full.
    constexpr uint64_t insts = 3 * trace::defaultChunkCapacity + 1234;
    constexpr uint64_t warmup = 7000;
    for (const std::string &name : workloads::commercialWorkloadNames()) {
        SCOPED_TRACE(name);
        core::TraceSpec s = spec(0, name);
        s.totalInsts = insts;
        s.annotation.warmupInsts = warmup;
        const auto made = core::PreparedTrace::make(s).orFatal();
        ASSERT_NE(made.buffer(), nullptr);

        trace::TraceBuffer reference(name);
        reference.fill(*workloads::makeWorkload(name, s.seed), insts);
        const auto annotated =
            core::AnnotatedTrace::make(reference, s.annotation).orFatal();

        expectSameChunks(*made.buffer(), reference);
        EXPECT_EQ(made.annotated().instructions(), insts);
        expectSameAnnotations(made.annotated(), annotated);
    }
}

TEST(PreparedTrace, DeadlineMidMakeIsDeadlineExceededAndJoinsTheHelper)
{
    // One make first, so a thread the runtime starts with the first
    // thread it sees (TSan's background thread) is in the baseline.
    (void)core::PreparedTrace::make(spec(0)).orFatal();
    const size_t threads_before = threadCount();
    core::TraceSpec s = spec(0);
    s.totalInsts = 8 * trace::defaultChunkCapacity;
    CancelToken token;
    // Mid-trace: the helper has chunks to annotate when it expires.
    const uint64_t expire_after = 2 * trace::defaultChunkCapacity + 100;
    {
        CancelScope scope(&token);
        try {
            (void)core::PreparedTrace::make(s, [&token, &s, expire_after] {
                return std::make_unique<ExpiringSource>(
                    workloads::makeWorkload(s.workload, s.seed), token,
                    expire_after);
            });
            ADD_FAILURE() << "make ran to completion past its deadline";
        } catch (const StatusError &e) {
            EXPECT_EQ(e.status().code(), ErrorCode::DeadlineExceeded);
        }
    }
    EXPECT_TRUE(token.stopRequested());
    // The helper was joined before make returned; its /proc entry may
    // take a moment to go.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (threadCount() > threads_before &&
           std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(threadCount(), threads_before);
}

TEST(PreparedTrace, MaterialisedSnapshotMatchesTheTwoPassBuild)
{
    ASSERT_FALSE(metrics::enabled());
    CollectMetrics collect;
    for (const std::string variant : {"", "l2_256KB"}) {
        SCOPED_TRACE("variant '" + variant + "'");
        core::TraceSpec s = spec(0);
        s.variant = variant;

        const std::string overlapped = snapshotOf(
            [&] { (void)core::PreparedTrace::make(s).orFatal(); });
        // The build the overlapped pass replaces, step by step: fill,
        // annotate under the variant's label, count the trace.
        const std::string two_pass = snapshotOf([&] {
            trace::TraceBuffer buffer(s.workload);
            buffer.fill(*workloads::makeWorkload(s.workload, s.seed),
                        s.totalInsts);
            {
                std::optional<metrics::ScopedLabel> label;
                if (!variant.empty())
                    label.emplace(variant);
                (void)core::AnnotatedTrace::make(buffer, s.annotation)
                    .orFatal();
            }
            auto &reg = metrics::cur();
            reg.add(metrics::scopedPath("workloads/traces"), 1);
            reg.add(metrics::scopedPath("workloads/generated_insts"),
                    s.totalInsts);
        });
        s.streamChunk = trace::defaultChunkCapacity;
        const std::string streamed = snapshotOf(
            [&] { (void)core::PreparedTrace::make(s).orFatal(); });

        EXPECT_NE(overlapped.find("core/annotate/insts"), std::string::npos);
        EXPECT_EQ(overlapped, two_pass);
        EXPECT_EQ(overlapped, streamed);
    }
}

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
