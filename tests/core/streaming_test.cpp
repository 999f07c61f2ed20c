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

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/mlpsim.hh"
#include "core/shared_stream.hh"
#include "core/trace_pipeline.hh"
#include "cyclesim/cycle_sim.hh"
#include "trace/stream_source.hh"
#include "util/cancellation.hh"
#include "util/parallel.hh"
#include "workloads/factory.hh"
#include "support/annotation_equality.hh"

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
    // The pipeline reads each instruction once, in order, and drops a
    // streamed chunk as it leaves it; chunk edges must change nothing
    // under any issue rule or window shape.
    std::vector<cyclesim::CycleSimConfig> configs;
    for (auto ic : {core::IssueConfig::A, core::IssueConfig::B,
                    core::IssueConfig::C}) {
        cyclesim::CycleSimConfig cfg;
        cfg.issue = ic;
        cfg.warmupInsts = kWarmup;
        configs.push_back(cfg);
        cfg.issueWindowSize = 16;
        cfg.robSize = 64;
        configs.push_back(cfg);
    }

    const Materialised ref;
    // 4096 and 3001 leave a partial last chunk of the 40000
    // instructions; 1000 divides them.
    for (uint32_t chunk_cap : {4096u, 3001u, 1000u}) {
        const auto source = makeStream(chunk_cap);
        const auto streamed =
            core::AnnotatedTrace::make(source, annotationOptions())
                .orFatal();
        for (const cyclesim::CycleSimConfig &cfg : configs) {
            SCOPED_TRACE(testing::Message() << "chunk=" << chunk_cap << " "
                                            << cfg.metricLabel());
            cfg.validate().orFatal();
            const auto a =
                cyclesim::CycleSim(cfg, ref.annotated->context()).run();
            const auto b = cyclesim::CycleSim(cfg, streamed.context()).run();
            EXPECT_EQ(a.cycles, b.cycles);
            EXPECT_EQ(a.instructions, b.instructions);
            EXPECT_EQ(a.offChipAccesses, b.offChipAccesses);
            EXPECT_EQ(a.mlpCycles, b.mlpCycles);
            EXPECT_EQ(a.mlpSum, b.mlpSum);
        }
    }
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

/** The spec of a streamed (@p chunk_cap > 0) or materialised trace
 *  of the test workload at the test budget. */
core::TraceSpec
traceSpec(uint32_t chunk_cap)
{
    core::TraceSpec spec;
    spec.workload = workloadName();
    spec.seed = workloads::workloadSeed(spec.workload);
    spec.totalInsts = kInsts;
    spec.streamChunk = chunk_cap;
    spec.annotation = annotationOptions();
    return spec;
}

core::PreparedTrace
prepareTrace(uint32_t chunk_cap)
{
    return core::PreparedTrace::make(traceSpec(chunk_cap)).orFatal();
}

/** prepareTrace() over a generator factory that counts its calls —
 *  one per generation — in @p factory_calls. */
core::PreparedTrace
prepareCountedTrace(uint32_t chunk_cap, std::atomic<size_t> &factory_calls)
{
    const core::TraceSpec spec = traceSpec(chunk_cap);
    return core::PreparedTrace::make(
               spec,
               [&factory_calls, name = spec.workload, seed = spec.seed] {
                   ++factory_calls;
                   return workloads::makeWorkload(name, seed);
               })
        .orFatal();
}

/** Defer one engine cell per config through @p grid. */
std::vector<Job<core::MlpResult>>
deferAll(core::CellGrid &grid, SweepRunner &runner,
         const core::PreparedTrace &trace,
         const std::vector<core::MlpConfig> &configs)
{
    std::vector<Job<core::MlpResult>> jobs;
    for (size_t i = 0; i < configs.size(); ++i) {
        const core::MlpConfig cfg = configs[i];
        jobs.push_back(grid.defer<core::MlpResult>(
            runner, trace, "cell " + std::to_string(i),
            [cfg](const core::WorkloadContext &ctx) {
                return core::runMlp(cfg, ctx);
            }));
    }
    return jobs;
}

/** Whether each of three cells deferred through a fresh grid under
 *  @p limits rode a fan-out slot (was grouped). */
std::vector<bool>
groupedCells(const core::PreparedTrace &trace, const JobLimits &limits)
{
    SweepRunner runner(2);
    runner.setJobLimits(limits);
    core::CellGrid grid;
    std::vector<Job<bool>> jobs;
    for (int i = 0; i < 3; ++i) {
        jobs.push_back(grid.defer<bool>(
            runner, trace, "probe " + std::to_string(i),
            [](const core::WorkloadContext &ctx) {
                // An attached fan-out slot must be consumed, so each
                // probe runs a real engine cell.
                core::MlpConfig cfg = core::MlpConfig::defaultOoO();
                cfg.warmupInsts = kWarmup;
                core::runMlp(cfg, ctx);
                return ctx.attached != nullptr;
            }));
    }
    runner.runAll();
    std::vector<bool> grouped;
    for (auto &job : jobs)
        grouped.push_back(job.get());
    return grouped;
}

} // namespace

TEST(SharedStream, SharedCellsMatchIndependentEngineRuns)
{
    std::atomic<size_t> factory_calls{0};
    const auto streamed = prepareCountedTrace(4096, factory_calls);
    const auto configs = sampleConfigs();

    std::vector<core::MlpResult> independent;
    for (const core::MlpConfig &cfg : configs)
        independent.push_back(core::runMlp(cfg, streamed.context()));
    // The annotate pass and each independent run: one generation each.
    ASSERT_EQ(factory_calls.load(), 1 + configs.size());

    core::CellGrid grid;
    SweepRunner runner(2);
    auto jobs = deferAll(grid, runner, streamed, configs);
    runner.runAll();

    for (size_t i = 0; i < configs.size(); ++i) {
        ASSERT_TRUE(jobs[i].succeeded()) << "cell " << i;
        expectSameResult(jobs[i].get(), independent[i]);
    }
    // The group rode one broadcast generation.
    EXPECT_EQ(factory_calls.load(), 2 + configs.size());
}

namespace {

/**
 * A streamed source that forwards to a generator and records the
 * width of every fan-out opened over it (and counts plain opens).
 */
class CountingSource : public trace::ChunkSource
{
  public:
    explicit CountingSource(const trace::ChunkSource &source)
        : inner(source)
    {
    }

    uint64_t size() const override { return inner.size(); }
    std::string name() const override { return inner.name(); }

    std::unique_ptr<trace::ChunkStream>
    open() const override
    {
        std::lock_guard<std::mutex> lock(mutex);
        ++opens;
        return inner.open();
    }

    std::unique_ptr<trace::StreamFanout>
    openFanout(size_t consumers, size_t ring_chunks) const override
    {
        std::lock_guard<std::mutex> lock(mutex);
        fanouts.push_back(consumers);
        return inner.openFanout(consumers, ring_chunks);
    }

    mutable std::mutex mutex;
    mutable size_t opens = 0;
    mutable std::vector<size_t> fanouts; //!< consumers per fan-out

  private:
    const trace::ChunkSource &inner;
};

/** @p n distinct engine configs (window and issue config vary). */
std::vector<core::MlpConfig>
distinctConfigs(size_t n)
{
    std::vector<core::MlpConfig> configs;
    for (size_t i = 0; i < n; ++i) {
        core::MlpConfig cfg = core::MlpConfig::sized(
            unsigned(16 + 4 * i), core::IssueConfig(i % 5));
        cfg.warmupInsts = kWarmup;
        configs.push_back(cfg);
    }
    return configs;
}

/**
 * Run one SharedCellGroup of @p configs over @p streamed with its
 * source wrapped in @p counting, each cell as its own job; return the
 * cells' results in submission order.
 */
std::vector<core::MlpResult>
runCountedGroup(const core::PreparedTrace &streamed,
                const CountingSource &counting,
                const std::vector<core::MlpConfig> &configs)
{
    core::WorkloadContext ctx = streamed.context();
    ctx.source = &counting;
    core::SharedCellGroup group(ctx);
    std::vector<core::MlpResult> results(configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
        const core::MlpConfig cfg = configs[i];
        core::MlpResult *out = &results[i];
        group.add(core::SharedCell{
            "cell " + std::to_string(i),
            [cfg, out](const core::WorkloadContext &cell_ctx) {
                *out = core::runMlp(cfg, cell_ctx);
            }});
    }
    SweepRunner runner(2);
    std::vector<Job<bool>> jobs;
    for (size_t i = 0; i < configs.size(); ++i) {
        jobs.push_back(runner.defer<bool>("cell " + std::to_string(i),
                                          [&group, i] {
                                              group.runCell(i);
                                              return true;
                                          }));
    }
    runner.runAll();
    for (size_t i = 0; i < jobs.size(); ++i)
        EXPECT_TRUE(jobs[i].succeeded()) << "cell " << i;
    return results;
}

} // namespace

TEST(SharedStream, GroupUpToTheBoundOpensOneStream)
{
    const auto streamed = prepareTrace(4096);
    const auto materialised = prepareTrace(0);
    const auto configs = distinctConfigs(core::maxConsumersPerGeneration);
    std::vector<core::MlpResult> reference;
    for (const core::MlpConfig &cfg : configs)
        reference.push_back(core::runMlp(cfg, materialised.context()));

    for (const size_t n : {size_t(1), size_t(2), size_t(3),
                           core::maxConsumersPerGeneration}) {
        SCOPED_TRACE(std::to_string(n) + " cells");
        const CountingSource counting(*streamed.context().source);
        const std::vector<core::MlpConfig> group(configs.begin(),
                                                 configs.begin() + n);
        const auto results = runCountedGroup(streamed, counting, group);
        if (n == 1) {
            // A lone cell runs inline over a plain stream of its own.
            EXPECT_EQ(counting.opens, 1u);
            EXPECT_TRUE(counting.fanouts.empty());
        } else {
            EXPECT_EQ(counting.opens, 0u);
            EXPECT_EQ(counting.fanouts, std::vector<size_t>{n});
        }
        for (size_t i = 0; i < n; ++i) {
            SCOPED_TRACE("cell " + std::to_string(i));
            expectSameResult(results[i], reference[i]);
        }
    }
}

TEST(SharedStream, WiderGroupSplitsIntoNearEqualGenerations)
{
    const auto streamed = prepareTrace(4096);
    const auto materialised = prepareTrace(0);
    const size_t n = core::maxConsumersPerGeneration + 1;
    const auto configs = distinctConfigs(n);

    const CountingSource counting(*streamed.context().source);
    const auto results = runCountedGroup(streamed, counting, configs);
    EXPECT_EQ(counting.opens, 0u);
    EXPECT_EQ(counting.fanouts, (std::vector<size_t>{17, 16}));
    for (size_t i = 0; i < n; ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        expectSameResult(results[i],
                         core::runMlp(configs[i], materialised.context()));
    }
}

TEST(CellGrid, StreamedGridBuildsNoExtraGenerator)
{
    // A grouped batch builds one generator per generation: one for a
    // group of up to maxConsumersPerGeneration cells, two for one more
    // — whatever the cells' limits, since every streamed cell joins
    // its trace's group under its own deadline.
    std::atomic<size_t> factory_calls{0};
    const auto streamed = prepareCountedTrace(4096, factory_calls);
    const auto materialised = prepareTrace(0);
    ASSERT_EQ(factory_calls.load(), 1u); // the annotate pass
    JobLimits limited;
    limited.deadlineMillis = 600'000;
    limited.maxAttempts = 2;
    for (const JobLimits &limits : {JobLimits{}, limited}) {
        for (const size_t n : {core::maxConsumersPerGeneration,
                               core::maxConsumersPerGeneration + 1}) {
            SCOPED_TRACE(std::to_string(n) + " cells, deadline " +
                         std::to_string(limits.deadlineMillis));
            const auto configs = distinctConfigs(n);
            const size_t before = factory_calls;
            core::CellGrid grid;
            SweepRunner runner(4);
            runner.setJobLimits(limits);
            auto jobs = deferAll(grid, runner, streamed, configs);
            runner.runAll();
            EXPECT_EQ(factory_calls - before,
                      n <= core::maxConsumersPerGeneration ? 1u : 2u);
            for (size_t i = 0; i < n; ++i) {
                ASSERT_TRUE(jobs[i].succeeded()) << "cell " << i;
                expectSameResult(
                    jobs[i].get(),
                    core::runMlp(configs[i], materialised.context()));
            }
        }
    }
}

TEST(CellGrid, AnnotationVariantsShareTheirTracesGeneration)
{
    // Cells over a streamed trace and over an annotation variant of it
    // ride one generation, each reading its own variant's annotations.
    std::atomic<size_t> factory_calls{0};
    const auto streamed = prepareCountedTrace(4096, factory_calls);
    core::AnnotationOptions perfect = streamed.annotated().options();
    perfect.branch.perfect = true;
    perfect.value.perfect = true;
    const auto variant = streamed.annotate("perfect", perfect).orFatal();
    ASSERT_EQ(factory_calls.load(), 2u); // the two annotate passes
    const auto materialised = prepareTrace(0);
    const auto materialised_variant =
        materialised.annotate("perfect", perfect).orFatal();

    const auto configs = sampleConfigs();
    core::CellGrid grid;
    SweepRunner runner(2);
    auto plain = deferAll(grid, runner, streamed, configs);
    auto varied = deferAll(grid, runner, variant, configs);
    runner.runAll();
    EXPECT_EQ(factory_calls.load(), 3u);
    for (size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i));
        ASSERT_TRUE(plain[i].succeeded());
        ASSERT_TRUE(varied[i].succeeded());
        expectSameResult(plain[i].get(),
                         core::runMlp(configs[i], materialised.context()));
        expectSameResult(
            varied[i].get(),
            core::runMlp(configs[i], materialised_variant.context()));
        EXPECT_NE(plain[i].get().epochs, varied[i].get().epochs);
    }
}

TEST(CellGrid, RetriedCellRerunsAloneOverAFreshStream)
{
    // A grouped cell that fails transiently once: its retry re-runs
    // only that cell, over one more generation of its own, and the
    // group's other cells are not re-run.
    std::atomic<size_t> factory_calls{0};
    const auto streamed = prepareCountedTrace(4096, factory_calls);
    const auto materialised = prepareTrace(0);
    const auto configs = sampleConfigs();
    JobLimits limits;
    limits.maxAttempts = 2;
    SweepRunner runner(2);
    runner.setJobLimits(limits);
    core::CellGrid grid;
    auto runs = std::make_shared<std::vector<std::atomic<int>>>(
        configs.size());
    std::vector<Job<core::MlpResult>> jobs;
    for (size_t i = 0; i < configs.size(); ++i) {
        const core::MlpConfig cfg = configs[i];
        jobs.push_back(grid.defer<core::MlpResult>(
            runner, streamed, "cell " + std::to_string(i),
            [cfg, runs, i](const core::WorkloadContext &ctx) {
                if ((*runs)[i].fetch_add(1) == 0 && i == 1)
                    throw StatusError(Status::unavailable("blip"));
                return core::runMlp(cfg, ctx);
            }));
    }
    const size_t before = factory_calls;
    runner.runAll();
    EXPECT_EQ(factory_calls - before, 2u); // the group, then the retry
    for (size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        ASSERT_TRUE(jobs[i].succeeded());
        EXPECT_EQ(jobs[i].attempts(), i == 1 ? 2u : 1u);
        EXPECT_EQ((*runs)[i].load(), i == 1 ? 2 : 1);
        expectSameResult(jobs[i].get(),
                         core::runMlp(configs[i], materialised.context()));
    }
}

TEST(SharedStream, CellThatStopsEarlyDoesNotStallItsGroup)
{
    // A tiny chunk makes the trace thousands of chunks long, so a
    // stopped cell that kept its fan-out slot would pin the ring
    // within a few chunks and stall the rest of the group for good.
    // Cell 1 throws at once; cell 2 blows its own short deadline
    // mid-trace while it holds a chunk; cells 0 and 3 must still
    // finish, unaffected.
    core::TraceSpec spec = traceSpec(7);
    spec.totalInsts = 20000;
    const auto streamed = core::PreparedTrace::make(spec).orFatal();
    spec.streamChunk = 0;
    const auto materialised = core::PreparedTrace::make(spec).orFatal();
    const auto configs = distinctConfigs(4);

    SweepRunner runner(2);
    core::CellGrid grid;
    std::vector<Job<core::MlpResult>> jobs;
    for (size_t i = 0; i < configs.size(); ++i) {
        JobLimits limits;
        if (i == 2)
            limits.deadlineMillis = 5;
        runner.setJobLimits(limits);
        const core::MlpConfig cfg = configs[i];
        jobs.push_back(grid.defer<core::MlpResult>(
            runner, streamed, "cell " + std::to_string(i),
            [cfg, i](const core::WorkloadContext &ctx) {
                if (i == 1)
                    throw StatusError(Status::dataLoss("stopped at once"));
                if (i == 2) {
                    const trace::ChunkPtr held = ctx.attached->next();
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(50));
                    pollCancellation();
                    ADD_FAILURE() << "cell 2 outlived its deadline";
                    return core::MlpResult{};
                }
                return core::runMlp(cfg, ctx);
            }));
    }
    runner.runAll();

    EXPECT_EQ(jobs[1].status().code(), ErrorCode::DataLoss);
    EXPECT_EQ(jobs[2].status().code(), ErrorCode::DeadlineExceeded);
    for (const size_t i : {size_t(0), size_t(3)}) {
        SCOPED_TRACE("cell " + std::to_string(i));
        ASSERT_TRUE(jobs[i].succeeded());
        expectSameResult(jobs[i].get(),
                         core::runMlp(configs[i], materialised.context()));
    }
}

TEST(CellGrid, QueuedJobsOutliveTheGrid)
{
    // A caller that abandons a batch (the daemon on a broken
    // connection) can drop its grid while jobs stay queued on the
    // runner; each job holds its group, so they still run correctly.
    const auto streamed = prepareTrace(4096);
    const auto configs = sampleConfigs();
    SweepRunner runner(2);
    std::vector<Job<core::MlpResult>> jobs;
    {
        core::CellGrid grid;
        jobs = deferAll(grid, runner, streamed, configs);
    }
    runner.runAll();
    for (size_t i = 0; i < configs.size(); ++i) {
        ASSERT_TRUE(jobs[i].succeeded()) << "cell " << i;
        expectSameResult(jobs[i].get(),
                         core::runMlp(configs[i], streamed.context()));
    }
}

TEST(CellGrid, LimitedCellsAndMaterialisedTracesRunUngrouped)
{
    const auto streamed = prepareTrace(4096);
    const auto materialised = prepareTrace(0);
    const std::vector<bool> all(3, true);
    const std::vector<bool> none(3, false);

    EXPECT_EQ(groupedCells(streamed, JobLimits{}), all);

    // Limits do not split a group: each cell keeps its own deadline,
    // and a retry re-runs only its cell.
    JobLimits deadline;
    deadline.deadlineMillis = 600'000;
    EXPECT_EQ(groupedCells(streamed, deadline), all);
    JobLimits retries;
    retries.maxAttempts = 2;
    EXPECT_EQ(groupedCells(streamed, retries), all);

    // A materialised trace has no generation to share.
    EXPECT_EQ(groupedCells(materialised, JobLimits{}), none);
}

} // namespace mlpsim::test
