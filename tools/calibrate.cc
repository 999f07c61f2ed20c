/**
 * @file
 * Workload calibration report.
 *
 * Prints, for each commercial workload, the trace characteristics the
 * paper reports (Table 1 miss rates, Table 5 in-order MLP, Figure 4/8
 * MLP points, Table 6 value-predictor statistics, Figure 5 inhibitor
 * mix) next to the paper's published values. Used while tuning the
 * synthetic workload parameters and kept as a tool so downstream users
 * adapting the generators can re-check their own presets.
 *
 * The target numbers come from a metrics snapshot — the embedded
 * paper-targets document by default (see workloads/paper_targets.hh,
 * committed as data/paper_targets.json), or any snapshot given with
 * --targets FILE, so a previous run's --metrics-out file can serve as
 * the baseline for a parameter-tuning diff.
 */
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/mlpsim.hh"
#include "core/trace_pipeline.hh"
#include "metrics/export.hh"
#include "metrics/registry.hh"
#include "trace/trace_stats.hh"
#include "util/options.hh"
#include "util/parallel.hh"
#include "workloads/factory.hh"
#include "workloads/paper_targets.hh"

using namespace mlpsim;

namespace {

/** The epoch-model cells calibrate reports for one workload. */
struct Cells
{
    Job<core::MlpResult> som, sou;
    std::vector<Job<core::MlpResult>> grid; //!< 4 windows x 5 configs
    Job<core::MlpResult> c64, rae, inf;
};

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    opts.rejectUnknown({"insts", "warmup", "workload", "l2mb", "jobs",
                        "targets", "metrics-out", "trace-events"});
    const uint64_t warmup = opts.scaledInsts("warmup", 1'000'000);
    const uint64_t measure = opts.scaledInsts("insts", 3'000'000);
    const uint64_t total = warmup + measure;
    const uint64_t l2mb = opts.getU64("l2mb", 2);
    const unsigned jobs = parseJobs(opts, 0).orFatal();

    const std::string targets_path = opts.getString("targets", "");
    const metrics::JsonValue targets_doc =
        targets_path.empty()
            ? workloads::paperTargetsSnapshot()
            : metrics::readJsonFile(targets_path).orFatal();

    const std::string metrics_out = opts.getString("metrics-out", "");
    const std::string trace_events = opts.getString("trace-events", "");
    if (!metrics_out.empty() || !trace_events.empty())
        metrics::setEnabled(true);

    const std::vector<std::string> names =
        workloads::selectWorkloads(opts.find("workload")).orFatal();

    SweepRunner runner(jobs);

    // Stage 1: materialise + annotate every workload concurrently.
    std::vector<Job<core::PreparedTrace>> prepJobs;
    for (const auto &name : names) {
        prepJobs.push_back(runner.defer<core::PreparedTrace>(
            "prepare " + name, [name, total, warmup, l2mb] {
                metrics::ScopedLabel wl_label(name);
                core::TraceSpec spec;
                spec.workload = name;
                spec.seed = workloads::workloadSeed(name);
                spec.totalInsts = total;
                spec.annotation.warmupInsts = warmup;
                spec.annotation.hierarchy.l2.sizeBytes = l2mb * 1024 * 1024;
                return core::PreparedTrace::make(spec).orFatal();
            }));
    }
    runner.runAll();

    std::vector<core::PreparedTrace> preps;
    for (auto &job : prepJobs)
        preps.push_back(job.take());

    // Stage 2: every epoch-model cell of every workload concurrently.
    using core::IssueConfig;
    auto defer = [&](const core::PreparedTrace &prep, core::MlpConfig cfg) {
        cfg.warmupInsts = warmup;
        const core::PreparedTrace *trace = &prep;
        return runner.defer<core::MlpResult>(
            "mlp " + prep.name(), [cfg, trace] {
                metrics::ScopedLabel wl_label(trace->name());
                metrics::ScopedLabel cfg_label(cfg.metricLabel());
                return core::runMlp(cfg, trace->context());
            });
    };

    std::vector<Cells> cells(preps.size());
    for (size_t w = 0; w < preps.size(); ++w) {
        core::MlpConfig som;
        som.mode = core::CoreMode::InOrderStallOnMiss;
        core::MlpConfig sou;
        sou.mode = core::CoreMode::InOrderStallOnUse;
        cells[w].som = defer(preps[w], som);
        cells[w].sou = defer(preps[w], sou);
        for (unsigned window : {32u, 64u, 128u, 256u}) {
            for (auto ic : {IssueConfig::A, IssueConfig::B,
                            IssueConfig::C, IssueConfig::D,
                            IssueConfig::E}) {
                cells[w].grid.push_back(defer(
                    preps[w], core::MlpConfig::sized(window, ic)));
            }
        }
        cells[w].c64 = defer(
            preps[w], core::MlpConfig::sized(64, IssueConfig::C));
        cells[w].rae = defer(preps[w], core::MlpConfig::runahead());
        cells[w].inf = defer(preps[w], core::MlpConfig::infinite());
    }
    runner.runAll();

    for (size_t w = 0; w < preps.size(); ++w) {
        const std::string &name = preps[w].name();
        const trace::TraceBuffer &buf = *preps[w].buffer();
        const core::AnnotatedTrace &ann = preps[w].annotated();
        const auto &m = ann.misses();
        const auto t =
            workloads::targetsFromSnapshot(targets_doc, name).orFatal();

        const auto mix = trace::measureMix(buf, total);

        std::printf("=== %s (%llu insts measured) ===\n", name.c_str(),
                    (unsigned long long)measure);
        std::printf("mix: loads=%.1f%% stores=%.1f%% branches=%.1f%% "
                    "serializing=%.3f%% prefetch=%.2f%%\n",
                    100 * mix.fracLoads(), 100 * mix.fracStores(),
                    100 * mix.fracBranches(),
                    100 * mix.fracSerializing(),
                    100 * mix.fracPrefetches());
        std::printf("miss/100: %.3f (paper %.2f)   [dmiss %.3f  imiss "
                    "%.3f  pmiss %.3f]   mispredict %.1f%%\n",
                    m.missRatePer100(), t.missPer100,
                    100.0 * double(m.loadMisses) / double(measure),
                    100.0 * double(m.fetchMisses) / double(measure),
                    100.0 * double(m.usefulPrefetches) / double(measure),
                    100 * ann.branches().mispredictRate());
        std::printf("VP: correct=%.0f%% wrong=%.0f%% nopred=%.0f%% "
                    "(paper C/W/N: db 42/7/51 jbb 20/3/77 web "
                    "25/5/70)\n",
                    100 * ann.values().fracCorrect(),
                    100 * ann.values().fracWrong(),
                    100 * ann.values().fracNoPredict());

        // Where do the demand misses come from? Bucket by the top
        // address nibbles (each workload gives its regions distinct
        // high bits).
        {
            std::map<uint64_t, uint64_t> regions;
            for (size_t i = warmup; i < buf.size(); ++i) {
                if (m.dataMiss(i))
                    ++regions[buf.at(i).effAddr >> 32];
            }
            std::printf("dmiss regions (addr>>32):");
            for (auto &[r, c] : regions)
                std::printf(" 0x%llx:%llu", (unsigned long long)r,
                            (unsigned long long)c);
            std::printf("\n");
        }

        std::printf("MLP: som=%.2f(%.2f) sou=%.2f(%.2f)\n",
                    cells[w].som.get().mlp(), t.mlpSom,
                    cells[w].sou.get().mlp(), t.mlpSou);
        size_t cell = 0;
        for (unsigned window : {32u, 64u, 128u, 256u}) {
            std::printf("  w=%-3u", window);
            for (auto ic : {IssueConfig::A, IssueConfig::B,
                            IssueConfig::C, IssueConfig::D,
                            IssueConfig::E}) {
                std::printf(" %s=%.2f", core::issueConfigName(ic),
                            cells[w].grid[cell++].get().mlp());
            }
            std::printf("\n");
        }
        std::printf("  64C=%.2f(paper %.2f) RAE=%.2f(paper %.1f) "
                    "INF=%.2f\n",
                    cells[w].c64.get().mlp(), t.mlp64C,
                    cells[w].rae.get().mlp(), t.mlpRunahead,
                    cells[w].inf.get().mlp());

        const auto &r = cells[w].c64.get();
        std::printf("64C inhibitors:");
        for (size_t i = 0; i < core::numInhibitors; ++i) {
            const auto inh = static_cast<core::Inhibitor>(i);
            if (r.inhibitors[inh]) {
                std::printf(" %s=%.0f%%", core::inhibitorName(inh),
                            100 * r.inhibitors.fraction(inh));
            }
        }
        std::printf("\n\n");
    }

    if (!metrics_out.empty()) {
        metrics::JsonValue meta = metrics::JsonValue::object();
        meta.set("tool", "calibrate");
        meta.set("warmup_insts", warmup);
        meta.set("measure_insts", measure);
        metrics::writeSnapshotFile(metrics_out, std::move(meta)).orFatal();
    }
    if (!trace_events.empty())
        metrics::writeTraceEventsFile(trace_events).orFatal();
    return 0;
}
