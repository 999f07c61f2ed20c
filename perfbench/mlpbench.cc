/**
 * @file
 * mlpbench — the end-to-end benchmark harness behind perfbench/run.py.
 *
 * Links the mlpsim libraries and drives their public entry points from
 * outside, the way a sweep user does: TraceBuffer::fill and
 * AnnotatedTrace::make / StreamingTrace::make to prepare traces,
 * core::runMlp and cyclesim::CycleSim::run for the cells of a
 * SweepRunner grid, and framed requests into an in-process
 * service::Daemon. One invocation runs one workload for a time budget
 * and prints one JSON document (the last stdout line): host-time
 * metrics, simulated statistics, per-cell result digests and every
 * correctness failure it saw. run.py turns that into the benchmark
 * result.
 *
 * Workloads (all inputs derive from --seed; seed 0 reproduces the
 * bench traces, i.e. workloads::workloadSeed(name)):
 *
 *   epoch-sweep        Figure 4 grid (5 windows x issue A-E) + one
 *                      runahead + two in-order cells per commercial
 *                      workload: 84 runMlp cells over materialised
 *                      traces.
 *   cyclesim-validate  Table 3 grid: 81 CycleSim cells + 27 epoch
 *                      cells, materialised; reports the largest
 *                      |CycleSim@1000 - epoch model| MLP.
 *   streamed-sweep     the epoch-sweep cells over streamed traces with
 *                      shared generation; digests must match
 *                      epoch-sweep's.
 *   daemon-mixed       closed loop (4 outstanding) of duplicate,
 *                      fresh-config and fresh-seed requests against
 *                      the daemon.
 *
 * With --trace=1 the run alternates traced and untraced repetitions
 * (the difference is the tracing overhead), records a span around
 * every call into a layer, then attributes trace preparation to its
 * modules and probes the layers the workload leaves idle, so every
 * per-layer metric is measured on every workload.
 *
 * Usage:
 *   mlpbench --workload=NAME --seed=N --seconds=S [--trace=0|1]
 *            [--spans-out=FILE]
 */
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/mlpsim.hh"
#include "core/result_json.hh"
#include "core/shared_stream.hh"
#include "core/trace_pipeline.hh"
#include "cyclesim/cycle_sim.hh"
#include "metrics/json.hh"
#include "service/daemon.hh"
#include "service/framing.hh"
#include "service/wire.hh"
#include "trace/stream_source.hh"
#include "trace/trace_buffer.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "workloads/factory.hh"

using namespace mlpsim;
using metrics::JsonValue;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Process user+sys CPU seconds so far. */
double
cpuSeconds()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/** Linear-interpolated quantile @p q of @p v (0 for an empty set). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

/** The trace seed of workload @p name under benchmark seed @p seed. */
uint64_t
traceSeed(const std::string &name, uint64_t seed)
{
    const uint64_t base = workloads::workloadSeed(name);
    return seed == 0 ? base : splitMix64(base ^ splitMix64(seed));
}

// ------------------------------------------------------------------
// Spans: one per call into a layer, kept in memory, written at exit.
// Spans never nest, so a layer's self time is the sum of its spans.
// ------------------------------------------------------------------

struct Span
{
    std::string layer;
    double start = 0.0; //!< seconds since the tracer's origin
    double dur = 0.0;
    unsigned rep = 0;   //!< repetition (or phase) that caused it
};

class Tracer
{
  public:
    bool enabled = false;
    unsigned rep = 0;

    void
    add(const std::string &layer, Clock::time_point t0, Clock::time_point t1)
    {
        if (!enabled)
            return;
        Span s;
        s.layer = layer;
        s.start = std::chrono::duration<double>(t0 - origin).count();
        s.dur = std::chrono::duration<double>(t1 - t0).count();
        s.rep = rep;
        std::lock_guard<std::mutex> lock(mutex);
        spans.push_back(std::move(s));
    }

    /** Sum of span durations per layer, over spans with rep >= @p from. */
    std::map<std::string, double>
    selfTimes(unsigned from = 0) const
    {
        std::lock_guard<std::mutex> lock(mutex);
        std::map<std::string, double> out;
        for (const Span &s : spans)
            if (s.rep >= from)
                out[s.layer] += s.dur;
        return out;
    }

    JsonValue
    toJson() const
    {
        std::lock_guard<std::mutex> lock(mutex);
        JsonValue arr = JsonValue::array();
        for (const Span &s : spans) {
            JsonValue o = JsonValue::object();
            o.set("layer", s.layer);
            o.set("start_s", s.start);
            o.set("dur_s", s.dur);
            o.set("rep", uint64_t(s.rep));
            arr.push(std::move(o));
        }
        return arr;
    }

  private:
    Clock::time_point origin = Clock::now();
    mutable std::mutex mutex;
    std::vector<Span> spans;
};

Tracer g_tracer;

/** Time @p fn as one span of @p layer (spans are free when off). */
template <typename Fn>
auto
timed(const std::string &layer, double *seconds, Fn &&fn)
{
    const auto t0 = Clock::now();
    auto out = fn();
    const auto t1 = Clock::now();
    g_tracer.add(layer, t0, t1);
    if (seconds)
        *seconds = std::chrono::duration<double>(t1 - t0).count();
    return out;
}

// ------------------------------------------------------------------
// Correctness bookkeeping.
// ------------------------------------------------------------------

struct Checks
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    fail(std::string what)
    {
        ++failed;
        if (errors.size() < 20)
            errors.push_back(std::move(what));
    }
};

Checks g_checks;

std::string
digest(const core::MlpResult &r)
{
    return service::contentHash(core::resultToJson(r).dump(0));
}

std::string
digest(const cyclesim::CycleSimResult &r)
{
    char text[160];
    std::snprintf(text, sizeof text, "%llu %llu %llu %llu %a",
                  (unsigned long long)r.cycles,
                  (unsigned long long)r.instructions,
                  (unsigned long long)r.offChipAccesses,
                  (unsigned long long)r.mlpCycles, r.mlpSum);
    return service::contentHash(text);
}

// ------------------------------------------------------------------
// Trace preparation.
// ------------------------------------------------------------------

/** A GeneratedChunkSource that counts stream opens (trace layer). */
class CountingSource : public trace::ChunkSource
{
  public:
    explicit CountingSource(const trace::GeneratedChunkSource &source)
        : inner(source)
    {
    }

    uint64_t size() const override { return inner.size(); }
    std::string name() const override { return inner.name(); }

    std::unique_ptr<trace::ChunkStream>
    open() const override
    {
        ++opens;
        return inner.open();
    }

    std::unique_ptr<trace::StreamFanout>
    openFanout(size_t consumers, size_t ring_chunks) const override
    {
        ++opens;
        return inner.openFanout(consumers, ring_chunks);
    }

    mutable std::atomic<uint64_t> opens{0};

  private:
    const trace::GeneratedChunkSource &inner;
};

struct Budget
{
    uint64_t warmup = 0;
    uint64_t insts = 0;
    uint64_t total() const { return warmup + insts; }
};

/** One prepared workload, materialised or streamed. */
struct Prepared
{
    std::string name;
    Budget budget;
    std::unique_ptr<trace::TraceBuffer> buffer;
    std::unique_ptr<core::AnnotatedTrace> annotated;
    std::unique_ptr<trace::GeneratedChunkSource> generator;
    std::unique_ptr<CountingSource> source;
    std::unique_ptr<core::StreamingTrace> streamed;

    core::WorkloadContext
    context() const
    {
        return annotated ? annotated->context() : streamed->context();
    }
};

std::unique_ptr<trace::GeneratedChunkSource>
makeGenerator(const std::string &name, uint64_t seed, const Budget &budget)
{
    return std::make_unique<trace::GeneratedChunkSource>(
        name, budget.total(),
        [name, seed] { return workloads::makeWorkload(name, seed); });
}

core::AnnotationOptions
annotationOptions(const Budget &budget)
{
    core::AnnotationOptions options;
    options.warmupInsts = budget.warmup;
    return options;
}

Prepared
prepare(const std::string &name, uint64_t seed, const Budget &budget,
        bool streamed)
{
    Prepared p;
    p.name = name;
    p.budget = budget;
    if (streamed) {
        p.generator = makeGenerator(name, seed, budget);
        p.source = std::make_unique<CountingSource>(*p.generator);
        p.streamed = std::make_unique<core::StreamingTrace>(
            timed("core.annotate", nullptr, [&] {
                return core::StreamingTrace::make(*p.source,
                                                  annotationOptions(budget))
                    .orFatal();
            }));
        return p;
    }
    p.buffer = std::make_unique<trace::TraceBuffer>(name);
    timed("workloads.generate", nullptr, [&] {
        auto gen = workloads::makeWorkload(name, seed);
        p.buffer->fill(*gen, budget.total());
        return 0;
    });
    p.annotated = std::make_unique<core::AnnotatedTrace>(
        timed("core.annotate", nullptr, [&] {
            return core::AnnotatedTrace::make(*p.buffer,
                                              annotationOptions(budget))
                .orFatal();
        }));
    return p;
}

const std::vector<std::string> &
workloadNames()
{
    return workloads::commercialWorkloadNames();
}

std::vector<Prepared>
prepareAll(SweepRunner &runner, uint64_t seed, const Budget &budget,
           bool streamed)
{
    std::vector<Job<Prepared>> jobs;
    for (const std::string &name : workloadNames()) {
        const uint64_t s = traceSeed(name, seed);
        jobs.push_back(runner.defer<Prepared>(
            "prepare " + name,
            [name, s, budget, streamed] {
                return prepare(name, s, budget, streamed);
            }));
    }
    runner.runAll();
    std::vector<Prepared> out;
    for (auto &job : jobs)
        out.push_back(job.take());
    return out;
}

// ------------------------------------------------------------------
// Cell grids.
// ------------------------------------------------------------------

core::MlpConfig
inOrder(core::CoreMode mode)
{
    core::MlpConfig c;
    c.mode = mode;
    return c;
}

std::string
layerOf(const core::MlpConfig &c)
{
    switch (c.mode) {
      case core::CoreMode::OutOfOrder:
        return "core.engine";
      case core::CoreMode::Runahead:
        return "core.runahead";
      default:
        return "core.inorder";
    }
}

/** Warm-up + measured instructions per trace, by workload. */
constexpr Budget figure4Budget{500'000, 1'500'000};
constexpr Budget table3Budget{250'000, 750'000};
constexpr Budget daemonBudget{75'000, 225'000};

/** Epoch and CycleSim configurations run on every workload. */
struct Grid
{
    std::vector<core::MlpConfig> epoch;
    std::vector<cyclesim::CycleSimConfig> cyc;
};

Grid
figure4Grid()
{
    Grid g;
    for (unsigned window : {16u, 32u, 64u, 128u, 256u})
        for (auto ic : {core::IssueConfig::A, core::IssueConfig::B,
                        core::IssueConfig::C, core::IssueConfig::D,
                        core::IssueConfig::E})
            g.epoch.push_back(core::MlpConfig::sized(window, ic));
    g.epoch.push_back(core::MlpConfig::runahead());
    g.epoch.push_back(inOrder(core::CoreMode::InOrderStallOnMiss));
    g.epoch.push_back(inOrder(core::CoreMode::InOrderStallOnUse));
    return g;
}

cyclesim::CycleSimConfig
cycConfig(unsigned window, core::IssueConfig ic, unsigned latency)
{
    cyclesim::CycleSimConfig cfg;
    cfg.issue = ic;
    cfg.issueWindowSize = window;
    cfg.robSize = window;
    cfg.offChipLatency = latency;
    return cfg;
}

Grid
table3Grid()
{
    Grid g;
    for (unsigned window : {32u, 64u, 128u})
        for (auto ic : {core::IssueConfig::A, core::IssueConfig::B,
                        core::IssueConfig::C}) {
            g.epoch.push_back(core::MlpConfig::sized(window, ic));
            for (unsigned lat : {200u, 500u, 1000u})
                g.cyc.push_back(cycConfig(window, ic, lat));
        }
    return g;
}

/** One executed cell. */
struct CellRecord
{
    std::string label;  //!< workload/config
    std::string layer;
    std::string digest;
    double seconds = 0.0;
    uint64_t measuredInsts = 0;
    uint64_t traceInsts = 0;   //!< instructions the cell walked
    uint64_t epochs = 0;
    uint64_t cycles = 0;
    double mlp = 0.0;
};

struct SweepOutcome
{
    std::vector<CellRecord> cells;
    SweepRunner::BatchStats batch;
};

CellRecord
runEpochCell(const core::MlpConfig &config, const Prepared &wl,
             const core::WorkloadContext &ctx)
{
    core::MlpConfig cfg = config;
    cfg.warmupInsts = wl.budget.warmup;
    CellRecord rec;
    rec.label = wl.name + "/" + cfg.metricLabel();
    rec.layer = layerOf(cfg);
    const core::MlpResult r = timed(rec.layer, &rec.seconds, [&] {
        return core::runMlp(cfg, ctx);
    });
    rec.digest = digest(r);
    rec.measuredInsts = r.measuredInsts;
    rec.traceInsts = wl.budget.total();
    rec.epochs = r.epochs;
    rec.mlp = r.mlp();
    return rec;
}

CellRecord
runCycCell(const cyclesim::CycleSimConfig &config, const Prepared &wl,
           const core::WorkloadContext &ctx)
{
    cyclesim::CycleSimConfig cfg = config;
    cfg.warmupInsts = wl.budget.warmup;
    cfg.validate().orFatal();
    CellRecord rec;
    rec.label = wl.name + "/" + cfg.metricLabel();
    rec.layer = "cyclesim";
    const cyclesim::CycleSimResult r = timed(
        rec.layer, &rec.seconds,
        [&] { return cyclesim::CycleSim(cfg, ctx).run(); });
    rec.digest = digest(r);
    rec.measuredInsts = r.instructions;
    rec.traceInsts = wl.budget.total();
    rec.cycles = r.cycles;
    rec.mlp = r.mlp();
    return rec;
}

/**
 * Run @p grid over every prepared workload as one SweepRunner batch.
 * Streamed workloads join one shared-generation group each (the
 * benches' default streamed mode), with waves no wider than the
 * runner, so the sweep never uses more threads than the runner has.
 */
SweepOutcome
runGrid(SweepRunner &runner, const Grid &grid,
        const std::vector<Prepared> &wls)
{
    std::vector<Job<CellRecord>> jobs;
    std::vector<std::unique_ptr<core::SharedCellGroup>> groups;
    for (const Prepared &wl : wls) {
        const Prepared *w = &wl;
        core::SharedCellGroup *group = nullptr;
        if (wl.streamed) {
            core::SharedRunOptions options;
            options.maxConcurrent = runner.jobs();
            groups.push_back(std::make_unique<core::SharedCellGroup>(
                wl.context(), options));
            group = groups.back().get();
        }
        for (const core::MlpConfig &cfg : grid.epoch) {
            if (!group) {
                jobs.push_back(runner.defer<CellRecord>(
                    "mlp " + wl.name, [cfg, w] {
                        return runEpochCell(cfg, *w, w->context());
                    }));
                continue;
            }
            auto slot = std::make_shared<std::optional<CellRecord>>();
            const size_t index = group->add(core::SharedCell{
                "mlp " + wl.name,
                [cfg, w, slot](const core::WorkloadContext &ctx) {
                    slot->emplace(runEpochCell(cfg, *w, ctx));
                }});
            jobs.push_back(runner.defer<CellRecord>(
                "mlp " + wl.name, [group, index, slot] {
                    group->runCell(index);
                    return std::move(**slot);
                }));
        }
        for (const cyclesim::CycleSimConfig &cfg : grid.cyc) {
            jobs.push_back(runner.defer<CellRecord>(
                "cyclesim " + wl.name, [cfg, w] {
                    return runCycCell(cfg, *w, w->context());
                }));
        }
    }
    runner.runAll();
    SweepOutcome out;
    out.batch = runner.lastBatch();
    for (auto &job : jobs)
        out.cells.push_back(job.take());
    return out;
}

/** Largest |CycleSim@1000 - epoch model| MLP over matching cells. */
double
mlpErrMax(const std::vector<CellRecord> &cells)
{
    std::map<std::string, double> model;
    for (const CellRecord &c : cells)
        if (c.layer == "core.engine")
            model[c.label] = c.mlp;
    double worst = 0.0;
    for (const CellRecord &c : cells) {
        const std::string suffix = "-mp1000";
        if (c.layer != "cyclesim" || c.label.size() < suffix.size() ||
            c.label.compare(c.label.size() - suffix.size(), suffix.size(),
                            suffix) != 0)
            continue;
        // "database/cyc64C-mp1000" pairs with "database/64C".
        std::string key = c.label.substr(0, c.label.size() - suffix.size());
        const size_t cyc = key.find("/cyc");
        if (cyc == std::string::npos)
            continue;
        key.erase(cyc + 1, 3);
        if (const auto it = model.find(key); it != model.end())
            worst = std::max(worst, std::abs(c.mlp - it->second));
    }
    return worst;
}

// ------------------------------------------------------------------
// Metrics document.
// ------------------------------------------------------------------

struct MetricSet
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        values;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        for (auto &entry : values)
            if (entry.first == name) {
                entry.second = {value, unit};
                return;
            }
        values.push_back({name, {value, unit}});
    }

    bool
    has(const std::string &name) const
    {
        for (const auto &entry : values)
            if (entry.first == name)
                return true;
        return false;
    }

    JsonValue
    toJson() const
    {
        JsonValue doc = JsonValue::object();
        for (const auto &[name, vu] : values) {
            JsonValue m = JsonValue::object();
            m.set("value", vu.first);
            m.set("unit", vu.second);
            doc.set(name, std::move(m));
        }
        return doc;
    }
};

MetricSet g_metrics;

/** Per-cell layer metrics from @p cells, for layers present there. */
void
cellLayerMetrics(const std::vector<CellRecord> &cells)
{
    std::map<std::string, std::vector<double>> ms;
    std::map<std::string, double> busy, insts;
    uint64_t epochs = 0, cycles = 0;
    for (const CellRecord &c : cells) {
        ms[c.layer].push_back(1e3 * c.seconds);
        busy[c.layer] += c.seconds;
        insts[c.layer] += double(c.traceInsts);
        epochs += c.epochs;
        cycles += c.cycles;
    }
    const auto put = [](const std::string &name, double v,
                        const char *unit) {
        if (!g_metrics.has(name))
            g_metrics.set(name, v, unit);
    };
    if (ms.count("core.engine")) {
        put("core.engine_cell_p50_ms", median(ms["core.engine"]), "ms");
        put("core.engine_cell_max_ms", quantile(ms["core.engine"], 1.0),
            "ms");
        put("core.engine_minst_per_s",
            insts["core.engine"] / busy["core.engine"] / 1e6, "Minst/s");
    }
    if (ms.count("core.inorder"))
        put("core.inorder_cell_p50_ms", median(ms["core.inorder"]), "ms");
    if (ms.count("core.runahead"))
        put("core.runahead_cell_p50_ms", median(ms["core.runahead"]), "ms");
    if (ms.count("core.engine") || ms.count("core.inorder"))
        put("core.epochs", double(epochs), "count");
    if (ms.count("cyclesim")) {
        put("cyclesim.cell_p50_ms", median(ms["cyclesim"]), "ms");
        put("cyclesim.cell_max_ms", quantile(ms["cyclesim"], 1.0), "ms");
        put("cyclesim.minst_per_s",
            insts["cyclesim"] / busy["cyclesim"] / 1e6, "Minst/s");
        put("cyclesim.ns_per_cycle", 1e9 * busy["cyclesim"] / double(cycles),
            "ns");
        put("cyclesim.mlp_err_max", mlpErrMax(cells), "mlp");
    }
}

void
batchMetrics(const SweepRunner::BatchStats &b, unsigned threads)
{
    if (g_metrics.has("parallel.concurrency"))
        return;
    g_metrics.set("parallel.concurrency", b.concurrency(), "ratio");
    g_metrics.set("parallel.tail_s",
                  (b.wallMillis - b.busyMillis / threads) / 1e3, "s");
}

// ------------------------------------------------------------------
// The in-process daemon and its closed-loop client.
// ------------------------------------------------------------------

/** A service::Daemon serving one socketpair connection on a thread. */
class InProcessDaemon
{
  public:
    explicit InProcessDaemon(unsigned jobs)
    {
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
            fatal("socketpair: ", std::strerror(errno));
        service::DaemonConfig cfg;
        cfg.jobs = jobs;
        cfg.emitEvents = false;
        // Room for the six hot traces plus four fresh ones: fresh
        // seeds evict each other, hot traces stay cached.
        cfg.traceCacheCapacity = 10;
        daemon = service::Daemon::create(cfg).orFatal();
        writer = std::make_unique<service::FrameWriter>(fds[0]);
        reader = std::make_unique<service::FrameReader>(fds[0]);
        server = std::thread([this] { served = daemon->serve(fds[1], fds[1]); });
    }

    ~InProcessDaemon() { close(); }

    InProcessDaemon(const InProcessDaemon &) = delete;
    InProcessDaemon &operator=(const InProcessDaemon &) = delete;

    void
    send(const std::string &frame)
    {
        writer->write(frame).orFatal();
    }

    std::string
    receive()
    {
        std::string frame;
        if (!reader->read(&frame).orFatal())
            fatal("daemon closed the connection early");
        return frame;
    }

    /** EOF the connection and join the serving thread. Afterwards the
     *  daemon's counters may be read without racing it. */
    void
    close()
    {
        if (!server.joinable())
            return;
        ::shutdown(fds[0], SHUT_WR);
        server.join();
        ::close(fds[0]);
        ::close(fds[1]);
        if (!served.ok())
            g_checks.fail("daemon stream: " + served.toString());
    }

    const service::Daemon &get() const { return *daemon; }

  private:
    int fds[2] = {-1, -1};
    std::unique_ptr<service::Daemon> daemon;
    std::unique_ptr<service::FrameWriter> writer;
    std::unique_ptr<service::FrameReader> reader;
    Status served;
    std::thread server; //!< declared last: uses every member above
};

enum class ReqKind { Duplicate, FreshConfig, FreshSeed, Prime };

struct Request
{
    ReqKind kind = ReqKind::FreshConfig;
    std::string frame;
    size_t original = 0;   //!< Duplicate: index of the copied request
    uint64_t cells = 0;
    uint64_t measuredInsts = 0;
};

/**
 * Deterministic request stream. Duplicates copy a request at least
 * `window` positions back — already answered in a closed loop of
 * `window` outstanding — so the stream does not depend on timing.
 * Fresh configs draw (window 16..256, issue A-E) cells not yet asked
 * for on one of the three hot traces; fresh seeds draw a new 64-bit
 * trace seed, which builds a trace and evicts from the trace cache.
 */
class RequestStream
{
  public:
    RequestStream(uint64_t seed, const Budget &budget, size_t window)
        : rng(splitMix64(seed ^ 0x5eedda3e0ULL)), budget(budget),
          window(window)
    {
        // Two hot traces per workload, the first at the sweeps' seed.
        for (int k = 0; k < 2; ++k)
            for (const std::string &name : workloadNames())
                hotSeeds.push_back(k == 0 ? traceSeed(name, seed)
                                          : splitMix64(traceSeed(name, seed)));
    }

    /** Number of hot traces (primed during setup). */
    size_t hotTraces() const { return hotSeeds.size(); }

    /** The priming request for hot trace @p h (setup). */
    Request
    prime(size_t h)
    {
        const size_t w = h % workloadNames().size();
        Request r = make(w, hotSeeds[h], {core::MlpConfig::defaultOoO()},
                         "prime" + std::to_string(h));
        r.kind = ReqKind::Prime;
        return r;
    }

    /** Requests per round: 38 duplicates, 44 fresh configs and 14
     *  fresh seeds (40/45/15%), shuffled, so every round does the same
     *  mix of work whatever the seed. */
    static constexpr size_t roundSize = 96;

    Request
    next()
    {
        const size_t i = issued.size();
        if (deck.empty()) {
            deck.assign(38, ReqKind::Duplicate);
            deck.insert(deck.end(), 44, ReqKind::FreshConfig);
            deck.insert(deck.end(), 14, ReqKind::FreshSeed);
            for (size_t k = deck.size() - 1; k > 0; --k)
                std::swap(deck[k], deck[size_t(rng.below(k + 1))]);
        }
        ReqKind kind = deck.back();
        deck.pop_back();
        // The first requests of a stream have nothing to duplicate yet.
        if (kind == ReqKind::Duplicate && i < window + 8)
            kind = ReqKind::FreshConfig;
        Request r;
        if (kind == ReqKind::Duplicate) {
            // Duplicate an original request already answered.
            size_t pick;
            do {
                pick = size_t(rng.below(i - window + 1));
            } while (issued[pick].kind == ReqKind::Duplicate);
            r = issued[pick];
            r.kind = ReqKind::Duplicate;
            r.original = pick;
        } else if (kind == ReqKind::FreshConfig) {
            const size_t h = size_t(rng.below(hotSeeds.size()));
            const size_t w = h % workloadNames().size();
            r = make(w, hotSeeds[h], freshConfigs(w, hotSeeds[h]),
                     "r" + std::to_string(i));
            r.kind = ReqKind::FreshConfig;
        } else {
            const size_t w = size_t(rng.below(workloadNames().size()));
            const uint64_t s = rng();
            r = make(w, s, freshConfigs(w, s), "r" + std::to_string(i));
            r.kind = ReqKind::FreshSeed;
        }
        issued.push_back(r);
        return r;
    }

    const Request &at(size_t i) const { return issued[i]; }

  private:
    std::vector<core::MlpConfig>
    freshConfigs(size_t w, uint64_t seed)
    {
        std::vector<core::MlpConfig> out;
        while (out.size() < 2) {
            const unsigned win = 16 + unsigned(rng.below(241));
            const auto ic = core::IssueConfig(rng.below(5));
            char key[96];
            std::snprintf(key, sizeof key, "%zu/%llu/%u/%d", w,
                          (unsigned long long)seed, win, int(ic));
            if (asked.insert(key).second)
                out.push_back(core::MlpConfig::sized(win, ic));
        }
        return out;
    }

    Request
    make(size_t w, uint64_t seed, const std::vector<core::MlpConfig> &cfgs,
         const std::string &id)
    {
        JsonValue doc = JsonValue::object();
        doc.set("schema", service::sweepRequestSchema);
        doc.set("id", id);
        doc.set("workload", workloadNames()[w]);
        doc.set("seed", seed);
        doc.set("warmup", budget.warmup);
        doc.set("insts", budget.insts);
        JsonValue configs = JsonValue::array();
        for (const core::MlpConfig &c : cfgs) {
            JsonValue cj = service::configToJson(c);
            cj.set("name", c.label());
            configs.push(std::move(cj));
        }
        doc.set("configs", std::move(configs));
        Request r;
        r.frame = doc.dump(0);
        r.cells = cfgs.size();
        r.measuredInsts = cfgs.size() * budget.insts;
        return r;
    }

    Rng rng;
    Budget budget;
    size_t window;
    std::vector<uint64_t> hotSeeds;
    std::vector<Request> issued;
    std::vector<ReqKind> deck;
    std::set<std::string> asked;
};

struct ServedRequest
{
    ReqKind kind;
    double ms = 0.0;
};

/**
 * Closed-loop client state: responses of original requests, kept for
 * the byte-compare of their duplicates and the spot checks.
 */
struct DaemonClient
{
    RequestStream stream;
    std::vector<std::string> responses; //!< by request index
    std::vector<ServedRequest> served;
    size_t window;
    /** Process CPU spent while at least one request was outstanding. */
    double busyCpu = 0.0;

    /** Serve @p n more requests with at most `window` outstanding. */
    void
    round(InProcessDaemon &d, size_t n, uint64_t *measured_insts)
    {
        std::deque<std::pair<size_t, Clock::time_point>> inflight;
        size_t sent = 0;
        const double c0 = cpuSeconds();
        while (sent < n || !inflight.empty()) {
            while (sent < n && inflight.size() < window) {
                const Request r = stream.next();
                inflight.push_back({responses.size(), Clock::now()});
                responses.emplace_back();
                d.send(r.frame);
                ++sent;
            }
            std::string frame = d.receive();
            const auto [index, t0] = inflight.front();
            inflight.pop_front();
            const Request &r = stream.at(index);
            const auto t1 = Clock::now();
            g_tracer.add("service.request", t0, t1);
            served.push_back(
                {r.kind, 1e3 * std::chrono::duration<double>(t1 - t0).count()});
            ++g_checks.attempted;
            *measured_insts += r.measuredInsts;
            if (frame.find("\"status\":\"ok\"") == std::string::npos)
                g_checks.fail("request " + std::to_string(index) +
                              " failed: " + frame.substr(0, 200));
            if (r.kind == ReqKind::Duplicate &&
                frame != responses[r.original])
                g_checks.fail("duplicate of request " +
                              std::to_string(r.original) +
                              " answered differently");
            responses[index] = std::move(frame);
        }
        // A closed loop keeps requests outstanding from its first send
        // to its last response.
        busyCpu += cpuSeconds() - c0;
    }
};

/** Recompute request @p i locally and byte-compare its response. */
void
spotCheckRequest(const DaemonClient &client, size_t i)
{
    const Request &r = client.stream.at(i);
    auto doc = JsonValue::parse(r.frame).orFatal();
    const service::SweepRequest req =
        service::parseSweepRequest(doc).orFatal();
    trace::TraceBuffer buffer(req.workload);
    auto gen = workloads::makeWorkload(req.workload, req.seed);
    buffer.fill(*gen, req.warmup + req.insts);
    core::AnnotationOptions options;
    options.warmupInsts = req.warmup;
    const auto annotated =
        core::AnnotatedTrace::make(buffer, options).orFatal();
    std::vector<service::ResponseRow> rows;
    for (const service::RequestConfig &rc : req.configs)
        rows.push_back(
            {rc.name, core::runMlp(rc.config, annotated.context())});
    ++g_checks.attempted;
    if (service::makeOkResponse(req, rows).dump(0) != client.responses[i])
        g_checks.fail("request " + std::to_string(i) +
                      ": daemon response differs from a direct runMlp");
}

// ------------------------------------------------------------------
// Workload drivers.
// ------------------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    unsigned jobs = 0; //!< runner threads: min(4, hardware threads)
    std::string spansOut;
};

/** End-to-end samples of one run. */
struct E2E
{
    std::vector<double> setup, setupCpu;
    std::vector<double> sweep, sweepCpu;   //!< untraced repetitions
    std::vector<double> tracedSweep;       //!< traced repetitions
    double measuredInsts = 0.0;            //!< per repetition
    double rss = 0.0;
};

/**
 * Setup repetitions. After an idle spell, the shared 4-vCPU VM the
 * baseline was measured on ran ~3x slower for the first ~1.2 s of load,
 * whatever the work, so setups repeat untimed for at least
 * warmupSeconds before five timed ones.
 */
constexpr double warmupSeconds = 2.0;
constexpr int setupTimed = 5;

/**
 * Return the previous setup's freed memory to the OS before the next
 * one, as a fresh process would start. Otherwise it stays in whichever
 * thread's malloc arena freed it, and the peak RSS depends on how many
 * warm-up setups ran and on which threads.
 */
void
releaseFreedMemory()
{
    ::malloc_trim(0);
}

/** True while setup repetition @p i belongs to the warm-up. */
bool
warmingUp(int i, Clock::time_point t_start)
{
    return i == 0 || secondsSince(t_start) < warmupSeconds;
}

void
reportE2E(const E2E &e)
{
    const double setup = median(e.setup);
    const double sweep = median(e.sweep);
    g_metrics.set("setup_s", setup, "s");
    g_metrics.set("sweep_s", sweep, "s");
    g_metrics.set("sim_minst_per_s", e.measuredInsts / (setup + sweep) / 1e6,
                  "Minst/s");
    g_metrics.set("cpu_s", median(e.setupCpu) + median(e.sweepCpu), "s");
    g_metrics.set("peak_rss_mb", e.rss, "MB");
    g_metrics.set("error_rate",
                  g_checks.attempted
                      ? double(g_checks.failed) / double(g_checks.attempted)
                      : 1.0,
                  "ratio");
    g_metrics.set("bench.setup_reps", double(e.setup.size()), "count");
    g_metrics.set("bench.sweep_reps", double(e.sweep.size()), "count");
    if (!e.tracedSweep.empty()) {
        const double traced = median(e.tracedSweep);
        g_metrics.set("bench.trace_overhead_s", traced - sweep, "s");
        g_metrics.set("bench.trace_overhead_frac", traced / sweep - 1.0,
                      "ratio");
    }
}

/** Attribute one trace's preparation to its modules (traced runs). */
struct Attribution
{
    double generate = 0, replay = 0, profile = 0, branch = 0, value = 0,
           annotate = 0, insts = 0;
    double offchip = 0, usefulPf = 0, pfAll = 0, mispredicts = 0,
           measured = 0, vpCorrect = 0, vpLoads = 0;
};

void
attribute(const std::string &name, uint64_t seed, const Budget &budget,
          bool streamed, Attribution &a, std::vector<Prepared> *keep)
{
    g_tracer.rep = 1u << 20; // attribution phase
    Prepared p;
    p.name = name;
    p.budget = budget;
    p.buffer = std::make_unique<trace::TraceBuffer>(name);
    double s = 0;
    timed("workloads.generate", &s, [&] {
        auto gen = workloads::makeWorkload(name, seed);
        p.buffer->fill(*gen, budget.total());
        return 0;
    });
    a.generate += s;
    a.insts += double(p.buffer->size());

    const auto source = makeGenerator(name, seed, budget);
    timed("trace.replay", &s, [&] {
        auto stream = source->open();
        uint64_t n = 0;
        while (auto chunk = stream->next())
            n += chunk->count;
        return n;
    });
    a.replay += s;

    memory::ProfileConfig pcfg;
    pcfg.warmupInsts = budget.warmup;
    const memory::MissAnnotations misses =
        timed("memory.profile", &s, [&] {
            return memory::AccessProfiler(pcfg).profile(*p.buffer);
        });
    a.profile += s;
    a.offchip += double(misses.usefulAccesses());
    a.usefulPf += double(misses.usefulPrefetches);
    a.pfAll += double(misses.usefulPrefetches + misses.uselessPrefetches);
    a.measured += double(misses.measuredInsts);

    const core::AnnotationOptions options = annotationOptions(budget);
    const branch::BranchAnnotations br = timed("branch.annotate", &s, [&] {
        branch::BranchAnnotator annotator(options.branch, budget.warmup);
        for (size_t c = 0; c < p.buffer->numChunks(); ++c)
            annotator.add(p.buffer->chunk(c));
        return annotator.finish();
    });
    a.branch += s;
    a.mispredicts += double(br.mispredicts);

    const predictor::ValueAnnotations vp =
        timed("predictor.annotate", &s, [&] {
            predictor::ValueAnnotator annotator(misses, options.value,
                                                budget.warmup);
            for (size_t c = 0; c < p.buffer->numChunks(); ++c)
                annotator.add(p.buffer->chunk(c));
            return annotator.finish();
        });
    a.value += s;
    a.vpCorrect += double(vp.correct);
    a.vpLoads += double(vp.missingLoads);

    if (streamed) {
        p.generator = makeGenerator(name, seed, budget);
        p.source = std::make_unique<CountingSource>(*p.generator);
        p.streamed = std::make_unique<core::StreamingTrace>(
            timed("core.annotate", &s, [&] {
                return core::StreamingTrace::make(*p.source, options)
                    .orFatal();
            }));
    } else {
        p.annotated = std::make_unique<core::AnnotatedTrace>(
            timed("core.annotate", &s, [&] {
                return core::AnnotatedTrace::make(*p.buffer, options)
                    .orFatal();
            }));
    }
    a.annotate += s;
    if (keep)
        keep->push_back(std::move(p));
}

void
reportAttribution(const Attribution &a, bool streamed)
{
    g_metrics.set("workloads.generate_s", a.generate, "s");
    g_metrics.set("workloads.minst_per_s", a.insts / a.generate / 1e6,
                  "Minst/s");
    g_metrics.set("trace.replay_s", a.replay, "s");
    g_metrics.set("memory.profile_s", a.profile, "s");
    g_metrics.set("memory.offchip_per_kinst", 1e3 * a.offchip / a.measured,
                  "1/kinst");
    g_metrics.set("memory.prefetch_useful_ratio",
                  a.pfAll ? a.usefulPf / a.pfAll : 0.0, "ratio");
    g_metrics.set("branch.annotate_s", a.branch, "s");
    g_metrics.set("branch.mispredict_per_kinst",
                  1e3 * a.mispredicts / a.measured, "1/kinst");
    g_metrics.set("predictor.annotate_s", a.value, "s");
    g_metrics.set("predictor.correct_ratio",
                  a.vpLoads ? a.vpCorrect / a.vpLoads : 0.0, "ratio");
    g_metrics.set("core.annotate_s", a.annotate, "s");
    // A streamed annotate pass also pays for regenerating the trace.
    g_metrics.set("core.annotate_residual_s",
                  a.annotate - a.profile - a.branch - a.value -
                      (streamed ? a.replay : 0.0),
                  "s");
}

/** Service-layer metrics: request latencies seen by the client (all,
 *  duplicates and cold requests) and the closed daemon's counters. */
void
serviceMetrics(const service::Daemon &d, const std::vector<double> &hit,
               const std::vector<double> &cold, const std::vector<double> &all,
               double req_per_s)
{
    g_metrics.set("service.hit_p50_ms", median(hit), "ms");
    g_metrics.set("service.cold_p50_ms", median(cold), "ms");
    g_metrics.set("service.req_per_s", req_per_s, "1/s");
    g_metrics.set("service.req_p50_ms", median(all), "ms");
    g_metrics.set("service.req_p99_ms", quantile(all, 0.99), "ms");
    const auto &st = d.stats();
    const auto ts = d.traceStats();
    g_metrics.set("service.cell_hit_ratio",
                  st.cells ? double(st.cellHits) / double(st.cells) : 0.0,
                  "ratio");
    const uint64_t lookups = ts.memoryHits + ts.diskHits + ts.builds;
    g_metrics.set("service.trace_cache_hit_ratio",
                  lookups ? double(ts.memoryHits) / double(lookups) : 0.0,
                  "ratio");
    g_metrics.set("service.trace_builds", double(ts.builds), "count");
}

/**
 * Probe the layers this workload leaves idle: one cell per layer per
 * workload on the attribution traces (as one SweepRunner batch), and a
 * few cold + duplicate requests against a fresh daemon. Metrics the
 * workload measured itself are kept.
 */
void
probeLayers(SweepRunner &runner, const std::vector<Prepared> &traces,
            const Budget &daemon_budget, uint64_t seed)
{
    g_tracer.rep = 2u << 20; // probe phase
    Grid probe;
    probe.epoch = {core::MlpConfig::defaultOoO(), core::MlpConfig::runahead(),
                   inOrder(core::CoreMode::InOrderStallOnMiss)};
    probe.cyc = {cycConfig(64, core::IssueConfig::C, 1000)};
    const SweepOutcome out = runGrid(runner, probe, traces);
    cellLayerMetrics(out.cells);
    batchMetrics(out.batch, runner.jobs());

    if (g_metrics.has("service.hit_p50_ms"))
        return;
    InProcessDaemon d(runner.jobs());
    RequestStream stream(seed, daemon_budget, 1);
    std::vector<double> cold, hit;
    for (size_t w = 0; w < workloadNames().size(); ++w) {
        const Request r = stream.prime(w);
        for (std::vector<double> *into : {&cold, &hit}) {
            const auto t0 = Clock::now();
            d.send(r.frame);
            const std::string frame = d.receive();
            into->push_back(1e3 * secondsSince(t0));
            ++g_checks.attempted;
            if (frame.find("\"status\":\"ok\"") == std::string::npos)
                g_checks.fail("probe request failed: " + frame.substr(0, 200));
        }
    }
    d.close();
    std::vector<double> all = cold;
    all.insert(all.end(), hit.begin(), hit.end());
    serviceMetrics(d.get(), hit, cold, all,
                   double(all.size()) / (sum(all) / 1e3));
}

/** Largest acceptable |CycleSim@1000 - epoch model| MLP: far above
 *  what the model shows on any seed, far below what a broken engine
 *  or pipeline produces. */
constexpr double maxMlpErr = 0.2;

/** The three sweep workloads. */
void
runSweepWorkload(const Options &o, const Grid &grid, const Budget &budget,
                 bool streamed, std::map<std::string, std::string> *digests)
{
    SweepRunner runner(o.jobs);
    const auto t_start = Clock::now();
    E2E e;

    std::vector<Prepared> wls;
    double traced_cpu = 0.0;
    for (int i = 0; e.setup.size() < setupTimed; ++i) {
        const bool warmup = warmingUp(i, t_start);
        wls.clear();
        releaseFreedMemory();
        const double c0 = cpuSeconds();
        double wall = 0;
        wls = timed("bench.setup", &wall, [&] {
            return prepareAll(runner, o.seed, budget, streamed);
        });
        if (!warmup) {
            e.setup.push_back(wall);
            e.setupCpu.push_back(cpuSeconds() - c0);
        }
    }
    uint64_t opens_before = 0;
    for (const Prepared &p : wls)
        if (p.source)
            opens_before += p.source->opens;

    // Sweep repetitions until the time budget is spent (at least three;
    // the first is a warm-up). Traced runs alternate traced/untraced.
    std::vector<CellRecord> first_cells, traced_cells;
    SweepRunner::BatchStats traced_batch;
    uint64_t traced_reps = 0;
    for (unsigned rep = 0;
         rep < 3 || secondsSince(t_start) < o.seconds; ++rep) {
        const bool traced = o.trace && rep % 2 == 1;
        g_tracer.enabled = traced;
        g_tracer.rep = 100 + rep;
        const double c0 = cpuSeconds();
        double wall = 0;
        SweepOutcome out = timed("bench.sweep", &wall, [&] {
            return runGrid(runner, grid, wls);
        });
        const double cpu = cpuSeconds() - c0;

        g_checks.attempted += out.cells.size();
        if (rep == 0) {
            for (const CellRecord &c : out.cells) {
                (*digests)[c.label] = c.digest;
                e.measuredInsts += double(c.measuredInsts);
            }
            first_cells = out.cells;
        } else {
            for (size_t k = 0; k < out.cells.size(); ++k)
                if (out.cells[k].digest != first_cells[k].digest)
                    g_checks.fail("repetition " + std::to_string(rep) +
                                  " changed cell " + out.cells[k].label);
        }
        if (rep == 0)
            continue; // warm-up
        if (traced) {
            e.tracedSweep.push_back(wall);
            traced_cpu += cpu;
            if (traced_reps++ == 0) {
                traced_cells = out.cells;
                traced_batch = out.batch;
            }
        } else {
            e.sweep.push_back(wall);
            e.sweepCpu.push_back(cpu);
        }
    }
    g_tracer.enabled = false;
    e.rss = peakRssMb();

    uint64_t opens = 0;
    for (const Prepared &p : wls)
        if (p.source)
            opens += p.source->opens;
    const double reps = double(e.sweep.size() + e.tracedSweep.size() + 1);

    // Cross-mode spot check: a few cells of every workload on the other
    // trace mode must reproduce this mode's digests.
    {
        Grid spot{{core::MlpConfig::defaultOoO()}, {}};
        if (grid.cyc.empty()) {
            spot.epoch.push_back(core::MlpConfig::runahead());
            spot.epoch.push_back(inOrder(core::CoreMode::InOrderStallOnMiss));
        } else {
            spot.cyc = {cycConfig(64, core::IssueConfig::C, 1000)};
        }
        std::vector<Prepared> other =
            prepareAll(runner, o.seed, budget, !streamed);
        for (const CellRecord &c : runGrid(runner, spot, other).cells) {
            ++g_checks.attempted;
            const auto it = digests->find(c.label);
            if (it == digests->end() || it->second != c.digest)
                g_checks.fail("cell " + c.label + " differs between the "
                              "materialised and streamed trace modes");
        }
    }

    reportE2E(e);
    if (!grid.cyc.empty()) {
        // Accuracy beside speed: the epoch model against the timed
        // pipeline at the paper's 1000-cycle latency.
        const double err = mlpErrMax(first_cells);
        g_metrics.set("mlp_err_max", err, "mlp");
        ++g_checks.attempted;
        if (!(err <= maxMlpErr))
            g_checks.fail("mlp_err_max " + std::to_string(err) +
                          " exceeds " + std::to_string(maxMlpErr));
    }
    if (!o.trace)
        return;

    // Per-layer: the traced repetitions' cells and batch, then the
    // attribution and probe phases for everything else.
    cellLayerMetrics(traced_cells);
    batchMetrics(traced_batch, runner.jobs());
    g_metrics.set("trace.stream_opens", double(opens - opens_before) / reps,
                  "count");

    const auto spans = g_tracer.selfTimes(100);
    double covered = 0.0;
    for (const auto &[layer, secs] : spans)
        if (layer.rfind("bench.", 0) != 0)
            covered += secs;
    g_metrics.set("bench.unattributed_frac",
                  traced_cpu > 0 ? 1.0 - covered / traced_cpu : 0.0, "ratio");

    g_tracer.enabled = true;
    Attribution a;
    std::vector<Prepared> traces;
    for (const std::string &name : workloadNames())
        attribute(name, traceSeed(name, o.seed), budget, streamed, a,
                  &traces);
    reportAttribution(a, streamed);
    probeLayers(runner, traces, daemonBudget, o.seed);
    g_tracer.enabled = false;
}

/**
 * The daemon workload. The request stream is a function of the seed and
 * a response a function of its request, so the responses to the six
 * priming requests and to the first round are digested by request into
 * @p digests, for run.py to check against digests.json.
 */
void
runDaemonWorkload(const Options &o, const Budget &budget,
                  std::map<std::string, std::string> *digests)
{
    const size_t window = o.jobs;
    const size_t round_size = RequestStream::roundSize;
    const unsigned rssRounds = 8;
    const auto t_start = Clock::now();
    E2E e;

    // Setup: daemon start to the first served frame of the cold
    // priming requests (one per hot trace, pipelined).
    std::unique_ptr<InProcessDaemon> d;
    DaemonClient client{RequestStream(o.seed, budget, window), {}, {},
                        window};
    for (int i = 0; e.setup.size() < setupTimed; ++i) {
        const bool warmup = warmingUp(i, t_start);
        if (d)
            d->close();
        d.reset();
        releaseFreedMemory();
        const double c0 = cpuSeconds();
        const auto t0 = Clock::now();
        d = std::make_unique<InProcessDaemon>(o.jobs);
        std::vector<Request> primes;
        for (size_t h = 0; h < client.stream.hotTraces(); ++h) {
            primes.push_back(client.stream.prime(h));
            d->send(primes.back().frame);
        }
        double first = 0.0;
        for (size_t w = 0; w < primes.size(); ++w) {
            const std::string frame = d->receive();
            if (w == 0)
                first = secondsSince(t0);
            ++g_checks.attempted;
            if (frame.find("\"status\":\"ok\"") == std::string::npos)
                g_checks.fail("priming request failed: " +
                              frame.substr(0, 200));
            const std::string hex = service::contentHash(frame);
            const auto [it, fresh] =
                digests->emplace("prime" + std::to_string(w), hex);
            if (!fresh && it->second != hex)
                g_checks.fail("priming request " + std::to_string(w) +
                              " answered differently on setup " +
                              std::to_string(i));
        }
        if (!warmup) {
            e.setup.push_back(first);
            e.setupCpu.push_back(cpuSeconds() - c0);
        }
    }

    // Rounds of round_size requests until the budget is spent (the
    // first round is a warm-up). Traced runs alternate traced rounds,
    // which time every request from outside; untraced rounds time only
    // the round.
    size_t served_from = 0;
    double traced_cpu = 0.0, traced_busy = 0.0;
    for (unsigned rep = 0;
         rep < 3 || secondsSince(t_start) < o.seconds; ++rep) {
        const bool traced = o.trace && rep % 2 == 1;
        g_tracer.enabled = traced;
        g_tracer.rep = 100 + rep;
        const double c0 = cpuSeconds();
        const double busy0 = client.busyCpu;
        const auto t0 = Clock::now();
        uint64_t insts = 0;
        client.round(*d, round_size, &insts);
        const double wall = secondsSince(t0);
        const double cpu = cpuSeconds() - c0;
        // Peak RSS grows with the request history (cache churn), so
        // it is read after a fixed number of rounds, not at the end.
        if (rep == rssRounds)
            e.rss = peakRssMb();
        if (rep == 0) {
            e.measuredInsts = double(insts);
            served_from = client.served.size();
            for (size_t i = 0; i < round_size; ++i) {
                char key[16];
                std::snprintf(key, sizeof key, "req%03zu", i);
                (*digests)[key] = service::contentHash(client.responses[i]);
            }
            continue;
        }
        if (traced) {
            e.tracedSweep.push_back(wall);
            traced_cpu += cpu;
            traced_busy += client.busyCpu - busy0;
        } else {
            e.sweep.push_back(wall);
            e.sweepCpu.push_back(cpu);
        }
    }
    g_tracer.enabled = false;
    if (e.rss == 0.0)
        e.rss = peakRssMb();
    d->close();

    // Spot checks: recompute a spread of original requests directly.
    const size_t total = client.responses.size();
    for (size_t k = 0, checked = 0; k < total && checked < 6;
         k += std::max<size_t>(1, total / 7)) {
        size_t i = k;
        while (i < total && client.stream.at(i).kind == ReqKind::Duplicate)
            ++i;
        if (i < total) {
            spotCheckRequest(client, i);
            ++checked;
        }
    }

    reportE2E(e);
    std::vector<double> lat, hit, cold;
    for (size_t i = served_from; i < client.served.size(); ++i) {
        const ServedRequest &s = client.served[i];
        lat.push_back(s.ms);
        if (s.kind == ReqKind::Duplicate)
            hit.push_back(s.ms);
        else if (s.kind == ReqKind::FreshSeed)
            cold.push_back(s.ms);
    }
    const double req_per_s = double(round_size) / median(e.sweep);
    g_metrics.set("req_per_s", req_per_s, "1/s");
    g_metrics.set("req_p50_ms", median(lat), "ms");
    g_metrics.set("req_p99_ms", quantile(lat, 0.99), "ms");
    g_metrics.set("bench.requests", double(lat.size()), "count");
    if (!o.trace)
        return;

    serviceMetrics(d->get(), hit, cold, lat, req_per_s);
    // The service is the one layer visible from outside here: its span
    // is every interval with a request outstanding.
    g_metrics.set("bench.unattributed_frac",
                  traced_cpu > 0 ? 1.0 - traced_busy / traced_cpu : 0.0,
                  "ratio");
    g_metrics.set("trace.stream_opens", 0.0, "count");
    d.reset();

    g_tracer.enabled = true;
    SweepRunner runner(o.jobs);
    Attribution a;
    std::vector<Prepared> traces;
    for (const std::string &name : workloadNames())
        attribute(name, traceSeed(name, o.seed), budget, false, a, &traces);
    reportAttribution(a, false);
    probeLayers(runner, traces, budget, o.seed);
    g_tracer.enabled = false;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const size_t eq = arg.find('=');
        if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
            fatal("mlpbench: expected --name=value, got '", arg, "'");
        const std::string key = arg.substr(2, eq - 2);
        const std::string value = arg.substr(eq + 1);
        if (key == "workload")
            o.workload = value;
        else if (key == "seed")
            o.seed = std::stoull(value);
        else if (key == "seconds")
            o.seconds = std::stod(value);
        else if (key == "trace")
            o.trace = value == "1";
        else if (key == "spans-out")
            o.spansOut = value;
        else
            fatal("mlpbench: unknown flag --", key);
    }
    o.jobs = std::min(4u, ThreadPool::hardwareThreads());
    return o;
}

JsonValue
hostStamp(unsigned jobs)
{
    JsonValue h = JsonValue::object();
    h.set("nproc", uint64_t(ThreadPool::hardwareThreads()));
    h.set("jobs", uint64_t(jobs));
    h.set("compiler", MLPBENCH_COMPILER);
    h.set("build_type", MLPBENCH_BUILD_TYPE);
    // perfbench/CMakeLists.txt builds without MLPSIM_NATIVE.
    h.set("mlpsim_native", false);
    return h;
}

} // namespace

int
main(int argc, char **argv)
{
    std::signal(SIGPIPE, SIG_IGN);
    // glibc moves its mmap threshold up the first time a large block is
    // freed, and when that happens depends on thread timing, which
    // made peak RSS wander by up to a third between identical runs.
    // Pin it where the moving threshold ends up anyway.
    ::mallopt(M_MMAP_THRESHOLD, 32 << 20);
    const Options o = parseArgs(argc, argv);

    std::map<std::string, std::string> digests;
    std::string grid;
    if (o.workload == "epoch-sweep" || o.workload == "streamed-sweep") {
        grid = "fig4";
        runSweepWorkload(o, figure4Grid(), figure4Budget,
                         o.workload == "streamed-sweep", &digests);
    } else if (o.workload == "cyclesim-validate") {
        grid = "table3";
        runSweepWorkload(o, table3Grid(), table3Budget, false,
                         &digests);
    } else if (o.workload == "daemon-mixed") {
        grid = "daemon";
        runDaemonWorkload(o, daemonBudget, &digests);
    } else {
        fatal("mlpbench: unknown workload '", o.workload,
              "' (epoch-sweep, cyclesim-validate, streamed-sweep, "
              "daemon-mixed)");
    }

    if (!o.spansOut.empty()) {
        if (std::FILE *f = std::fopen(o.spansOut.c_str(), "w")) {
            std::fputs(g_tracer.toJson().dump(0).c_str(), f);
            std::fclose(f);
        }
    }

    JsonValue doc = JsonValue::object();
    doc.set("workload", o.workload);
    doc.set("seed", o.seed);
    doc.set("trace", o.trace);
    doc.set("host", hostStamp(o.jobs));
    doc.set("attempted", g_checks.attempted);
    doc.set("failed", g_checks.failed);
    JsonValue errors = JsonValue::array();
    for (const std::string &err : g_checks.errors)
        errors.push(err);
    doc.set("errors", std::move(errors));
    doc.set("grid", grid);
    JsonValue cells = JsonValue::object();
    for (const auto &[label, hex] : digests)
        cells.set(label, hex);
    doc.set("digests", std::move(cells));
    doc.set("metrics", g_metrics.toJson());
    std::printf("%s\n", doc.dump(0).c_str());
    return 0;
}
