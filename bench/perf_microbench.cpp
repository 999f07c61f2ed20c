/**
 * @file
 * Simulator-throughput microbenchmarks (google-benchmark): how many
 * instructions per second each component processes, plus an ablation
 * of the epoch-instruction-horizon design choice called out in
 * DESIGN.md. These guard against performance regressions in the
 * simulation loop itself.
 *
 * Besides the usual console table, a run given --metrics-out FILE
 * writes a machine-readable summary there: one `{bench, workload,
 * config, wall_s, instr_per_s, peak_rss_kb}` row per benchmark, for
 * tracking simulator throughput across revisions without scraping
 * console output. Without the flag it writes no file, so a filtered
 * run cannot overwrite the committed reference, BENCH_perf.json.
 *
 * --engine-only restricts the run to the epoch-engine replay
 * benchmarks (BM_EpochEngine*). Those replay a trace that was
 * generated and annotated once, outside the timed region, so the
 * resulting summary isolates engine-level instr_per_s from
 * workload-generation and annotation throughput. --cyclesim-only does
 * the same for the cycle-accurate reference pipeline (BM_CycleSim*).
 */
#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#if !defined(_WIN32)
#include <sys/resource.h>
#endif

#include "core/mlpsim.hh"
#include "core/shared_stream.hh"
#include "core/trace_pipeline.hh"
#include "cyclesim/cycle_sim.hh"
#include "metrics/export.hh"
#include "metrics/json.hh"
#include "trace/stream_source.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "workloads/factory.hh"
#include "workloads/micro.hh"

namespace {

using namespace mlpsim;

constexpr uint64_t traceInsts = 200'000;

/** A trace built once per process (core::PreparedTrace::make) and
 *  cached by its spec. */
const core::PreparedTrace &
prepared(const std::string &name, uint64_t seed, uint64_t insts,
         uint64_t warmup, uint32_t stream_chunk)
{
    static std::map<std::tuple<std::string, uint64_t, uint64_t, uint64_t,
                               uint32_t>,
                    core::PreparedTrace>
        cache;
    const auto key = std::make_tuple(name, seed, insts, warmup, stream_chunk);
    auto it = cache.find(key);
    if (it == cache.end()) {
        core::TraceSpec spec;
        spec.workload = name;
        spec.seed = seed;
        spec.totalInsts = insts;
        spec.streamChunk = stream_chunk;
        spec.annotation.warmupInsts = warmup;
        it = cache.emplace(key, core::PreparedTrace::make(spec).orFatal())
                 .first;
    }
    return it->second;
}

/** A materialised preset trace, annotated with @p warmup excluded. */
const core::PreparedTrace &
annotatedWorkload(const std::string &name, uint64_t insts = traceInsts,
                  uint64_t warmup = 0)
{
    return prepared(name, workloads::presetSeed(name), insts, warmup, 0);
}

void
BM_AccessProfiler(benchmark::State &state)
{
    auto generator = workloads::makeWorkload("database");
    trace::TraceBuffer buffer("database");
    buffer.fill(*generator, traceInsts);
    memory::AccessProfiler profiler{memory::ProfileConfig{}};
    for (auto _ : state)
        benchmark::DoNotOptimize(profiler.profile(buffer));
    state.SetItemsProcessed(int64_t(state.iterations()) * traceInsts);
}
BENCHMARK(BM_AccessProfiler);

void
BM_EpochEngine(benchmark::State &state)
{
    const auto &annotated = annotatedWorkload("database");
    core::MlpConfig cfg = core::MlpConfig::sized(
        unsigned(state.range(0)), core::IssueConfig::C);
    for (auto _ : state)
        benchmark::DoNotOptimize(core::runMlp(cfg, annotated.context()));
    state.SetItemsProcessed(int64_t(state.iterations()) * traceInsts);
}
BENCHMARK(BM_EpochEngine)->Arg(64)->Arg(256)->Arg(2048);

/**
 * The Figure 4 sweep's trace shape (500k warm-up + 1.5M measured
 * instructions). BM_EpochEngine's short cold trace is dense with
 * off-chip events; past the warm-up most instructions fall in quiet
 * stretches between them, which the engine's conveyor advances a
 * dispatch batch at a time, so only this shape shows that path's
 * speed.
 */
constexpr uint64_t warmWarmupInsts = 500'000;
constexpr uint64_t warmTraceInsts = 2'000'000;

void
BM_EpochEngineWarm(benchmark::State &state)
{
    const auto &annotated =
        annotatedWorkload("database", warmTraceInsts, warmWarmupInsts);
    core::MlpConfig cfg = core::MlpConfig::sized(
        unsigned(state.range(0)), core::IssueConfig::C);
    cfg.warmupInsts = warmWarmupInsts;
    for (auto _ : state)
        benchmark::DoNotOptimize(core::runMlp(cfg, annotated.context()));
    state.SetItemsProcessed(int64_t(state.iterations()) * warmTraceInsts);
}
BENCHMARK(BM_EpochEngineWarm)->Arg(64)->Arg(256);

/**
 * Streaming-mode counterpart of annotatedWorkload(): annotations come
 * from one streamed annotate pass, and each engine run
 * re-streams the trace from the replayable source instead of reading
 * a materialised buffer.
 */
const core::PreparedTrace &
streamedWorkload(const std::string &name)
{
    return prepared(name, workloads::workloadSeed(name), traceInsts, 0,
                    trace::defaultChunkCapacity);
}

/** Consumers sharing one broadcast generation per BM_EpochEngineStream
 *  iteration — the shape every streamed sweep runs in production.
 *  Sized so generation (~1/8 of one engine run) is amortised well past
 *  the 0.85 CI floor even on a loaded single-core runner. */
constexpr size_t streamFanout = 16;

/** Same config grid as BM_EpochEngine, consuming re-generated chunk
 *  streams instead of a materialised buffer, through the scheduler
 *  the sweep layers use (core::CellGrid): each iteration defers
 *  `streamFanout` engine cells, which run as concurrent consumers of
 *  ONE shared generation, so the generation cost is amortised exactly
 *  as it is in a grouped sweep. Items processed counts every consumed
 *  instruction, making instr_per_s directly comparable to
 *  BM_EpochEngine's replay rate — the min-ratio CI gate in
 *  bench_perf_smoke holds the streamed rate to >= 0.85x materialised.
 *  Under --stream-only the row's peak RSS is also the whole streaming
 *  pipeline's footprint (no materialised trace exists in the
 *  process). */
void
BM_EpochEngineStream(benchmark::State &state)
{
    const auto &streamed = streamedWorkload("database");
    const core::MlpConfig cfg = core::MlpConfig::sized(
        unsigned(state.range(0)), core::IssueConfig::C);
    // One runner thread: the first job leads the whole group on its
    // own engine threads, the other jobs only adopt their results.
    SweepRunner runner(1);
    core::CellGrid grid;
    for (auto _ : state) {
        std::vector<Job<core::MlpResult>> cells;
        cells.reserve(streamFanout);
        for (size_t f = 0; f < streamFanout; ++f) {
            cells.push_back(grid.defer<core::MlpResult>(
                runner, streamed, "fanout " + std::to_string(f),
                [cfg](const core::WorkloadContext &ctx) {
                    return core::runMlp(cfg, ctx);
                }));
        }
        runner.runAll();
        grid.clear();
        benchmark::DoNotOptimize(cells.front().get().epochs);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * traceInsts *
                            int64_t(streamFanout));
}
// UseRealTime: the fan-out runs on worker threads, so the calling
// thread's CPU time is a sliver of the wall — without this, the
// framework paces iterations off that sliver and runs the benchmark
// ~250x longer than asked (and prints a meaningless items/s).
BENCHMARK(BM_EpochEngineStream)->Arg(64)->Arg(256)->Arg(2048)->UseRealTime();

void
BM_EpochEngineRunahead(benchmark::State &state)
{
    const auto &annotated = annotatedWorkload("database");
    const core::MlpConfig cfg = core::MlpConfig::runahead();
    for (auto _ : state)
        benchmark::DoNotOptimize(core::runMlp(cfg, annotated.context()));
    state.SetItemsProcessed(int64_t(state.iterations()) * traceInsts);
}
BENCHMARK(BM_EpochEngineRunahead);

/** Ablation: the epoch-instruction-horizon bound (DESIGN.md §7). */
void
BM_EpochHorizonAblation(benchmark::State &state)
{
    const auto &annotated = annotatedWorkload("specweb99");
    core::MlpConfig cfg = core::MlpConfig::defaultOoO();
    cfg.epochInstHorizon = unsigned(state.range(0));
    double mlp = 0;
    for (auto _ : state) {
        mlp = core::runMlp(cfg, annotated.context()).mlp();
        benchmark::DoNotOptimize(mlp);
    }
    state.counters["mlp"] = mlp;
    state.SetItemsProcessed(int64_t(state.iterations()) * traceInsts);
}
BENCHMARK(BM_EpochHorizonAblation)->Arg(256)->Arg(2048)->Arg(1 << 20);

void
BM_CycleSim(benchmark::State &state)
{
    const auto &annotated = annotatedWorkload("database");
    cyclesim::CycleSimConfig cfg;
    cfg.offChipLatency = unsigned(state.range(0));
    for (auto _ : state) {
        cyclesim::CycleSim sim(cfg, annotated.context());
        benchmark::DoNotOptimize(sim.run());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * traceInsts);
}
BENCHMARK(BM_CycleSim)->Arg(200)->Arg(1000);

void
BM_WorkloadGeneration(benchmark::State &state)
{
    for (auto _ : state) {
        auto generator = workloads::makeWorkload("specjbb2000");
        trace::TraceBuffer buffer("jbb");
        buffer.fill(*generator, traceInsts);
        benchmark::DoNotOptimize(buffer.size());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * traceInsts);
}
BENCHMARK(BM_WorkloadGeneration);

/** The materialised prepare step: generate and annotate one trace of
 *  the Figure 4 sweep's shape, as every bench and the daemon do. */
void
BM_PreparedTraceMake(benchmark::State &state)
{
    core::TraceSpec spec;
    spec.workload = "database";
    spec.seed = workloads::workloadSeed(spec.workload);
    spec.totalInsts = warmTraceInsts;
    spec.annotation.warmupInsts = warmWarmupInsts;
    for (auto _ : state)
        benchmark::DoNotOptimize(core::PreparedTrace::make(spec).orFatal());
    state.SetItemsProcessed(int64_t(state.iterations()) * warmTraceInsts);
}
BENCHMARK(BM_PreparedTraceMake)->UseRealTime();

void
BM_InOrderModel(benchmark::State &state)
{
    const auto &annotated = annotatedWorkload("database");
    core::MlpConfig cfg;
    cfg.mode = core::CoreMode::InOrderStallOnUse;
    for (auto _ : state)
        benchmark::DoNotOptimize(core::runMlp(cfg, annotated.context()));
    state.SetItemsProcessed(int64_t(state.iterations()) * traceInsts);
}
BENCHMARK(BM_InOrderModel);

/** The workload each BM_ function above exercises. */
std::string
benchWorkload(const std::string &bench)
{
    if (bench == "WorkloadGeneration")
        return "specjbb2000";
    if (bench == "EpochHorizonAblation")
        return "specweb99";
    return "database";
}

uint64_t
peakRssKb()
{
#if !defined(_WIN32)
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) == 0)
        return uint64_t(usage.ru_maxrss); // kilobytes on Linux
#endif
    return 0;
}

/**
 * The normal console table, plus one perf-summary row per benchmark:
 * total measured wall time, simulated instructions per second, and the
 * process peak RSS observed by the time the benchmark finished.
 */
class PerfJsonReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &reports) override
    {
        ConsoleReporter::ReportRuns(reports);
        for (const Run &run : reports) {
            if (run.error_occurred || run.run_type != Run::RT_Iteration)
                continue;
            // "BM_EpochEngine/64" -> bench "EpochEngine", config "64".
            std::string name = run.benchmark_name();
            if (name.rfind("BM_", 0) == 0)
                name = name.substr(3);
            std::string config;
            if (const auto slash = name.find('/');
                slash != std::string::npos) {
                config = name.substr(slash + 1);
                name = name.substr(0, slash);
            }
            // UseRealTime benchmarks carry a "/real_time" name suffix;
            // it is a measurement mode, not part of the config.
            if (const auto rt = config.rfind("/real_time");
                rt != std::string::npos)
                config = config.substr(0, rt);
            if (config == "real_time")
                config.clear();
            metrics::JsonValue row = metrics::JsonValue::object();
            row.set("bench", name);
            row.set("workload", benchWorkload(name));
            row.set("config", config);
            row.set("wall_s", run.real_accumulated_time);
            // The fan-out benchmark consumes streamFanout traces per
            // iteration; count every consumed instruction so its
            // instr_per_s is comparable to the replay benchmarks'.
            const double per_iter =
                name == "EpochEngineStream"
                    ? double(traceInsts) * double(streamFanout)
                : name == "EpochEngineWarm" || name == "PreparedTraceMake"
                    ? double(warmTraceInsts)
                    : double(traceInsts);
            const double instrs = double(run.iterations) * per_iter;
            row.set("instr_per_s",
                    run.real_accumulated_time > 0.0
                        ? instrs / run.real_accumulated_time
                        : 0.0);
            row.set("peak_rss_kb", peakRssKb());
            results.push(std::move(row));
        }
    }

    metrics::JsonValue results = metrics::JsonValue::array();
};

} // namespace

int
main(int argc, char **argv)
{
    // Peel off --metrics-out, --engine-only and --cyclesim-only before
    // google-benchmark sees (and rejects) them; everything else passes
    // through to the library.
    std::string metrics_out; // empty: no summary file
    bool engine_only = false;
    bool cyclesim_only = false;
    bool stream_only = false;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--metrics-out" && i + 1 < argc) {
            metrics_out = argv[++i];
            continue;
        }
        if (arg.rfind("--metrics-out=", 0) == 0) {
            metrics_out = std::string(arg.substr(14));
            continue;
        }
        if (arg == "--engine-only") {
            engine_only = true;
            continue;
        }
        if (arg == "--cyclesim-only") {
            cyclesim_only = true;
            continue;
        }
        if (arg == "--stream-only") {
            stream_only = true;
            continue;
        }
        args.push_back(argv[i]);
    }
    // Must outlive Initialize(); restricts the run to pre-annotated
    // replay of one simulator (see the file comment).
    static char engine_filter[] = "--benchmark_filter=^BM_EpochEngine";
    static char cyclesim_filter[] = "--benchmark_filter=^BM_CycleSim";
    // The stream filter isolates the streaming rows in a process that
    // never materialises a trace, so their peak_rss_kb genuinely
    // measures the streaming pipeline's footprint.
    static char stream_filter[] =
        "--benchmark_filter=^BM_EpochEngineStream";
    if (engine_only)
        args.push_back(engine_filter);
    if (cyclesim_only)
        args.push_back(cyclesim_filter);
    if (stream_only)
        args.push_back(stream_filter);
    int pass_argc = int(args.size());
    benchmark::Initialize(&pass_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(pass_argc, args.data()))
        return 1;

    PerfJsonReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    if (!metrics_out.empty()) {
        metrics::writeJsonFile(
            metrics_out,
            metrics::makeBenchPerfDoc(std::move(reporter.results)))
            .orFatal();
        inform("perf summary written to ", metrics_out);
    }
    return 0;
}
