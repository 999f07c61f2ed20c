/**
 * @file
 * Off-chip burst profile.
 *
 * The paper (Section 4.1) notes that MLPsim "can be used as a simple
 * processor model that accurately estimates the clustering of off-chip
 * accesses in simulation-based queueing models of memory and system
 * interconnects". This tool produces exactly that input: for a chosen
 * machine, the distribution of simultaneous off-chip accesses per
 * epoch (burst sizes), their mean, and the epoch-arrival statistics a
 * queueing model of the memory system needs.
 *
 * Usage: ./burst_profile [--workload NAME] [--machine 64C|RAE|INF|som]
 *                        [--insts N] [--warmup N] [--jobs N]
 *                        [--metrics-out FILE] [--trace-events FILE]
 */
#include <cstdio>
#include <string>
#include <vector>

#include "core/mlpsim.hh"
#include "core/trace_pipeline.hh"
#include "metrics/export.hh"
#include "metrics/registry.hh"
#include "util/logging.hh"
#include "util/options.hh"
#include "util/parallel.hh"
#include "util/table.hh"
#include "workloads/factory.hh"

using namespace mlpsim;

namespace {

core::MlpConfig
machineByName(const std::string &name)
{
    if (name == "RAE")
        return core::MlpConfig::runahead();
    if (name == "INF")
        return core::MlpConfig::infinite();
    if (name == "som") {
        core::MlpConfig cfg;
        cfg.mode = core::CoreMode::InOrderStallOnMiss;
        return cfg;
    }
    if (name == "sou") {
        core::MlpConfig cfg;
        cfg.mode = core::CoreMode::InOrderStallOnUse;
        return cfg;
    }
    // "<window><config>" labels like 64C / 128E.
    const size_t split = name.find_first_not_of("0123456789");
    if (split == std::string::npos || split == 0)
        fatal("unknown machine '", name, "'");
    const unsigned window = unsigned(std::stoul(name.substr(0, split)));
    const char cfg_letter = name[split];
    if (cfg_letter < 'A' || cfg_letter > 'E')
        fatal("unknown issue config '", name.substr(split), "'");
    return core::MlpConfig::sized(
        window, static_cast<core::IssueConfig>(cfg_letter - 'A'));
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    opts.rejectUnknown({"insts", "warmup", "machine", "workload", "jobs",
                        "metrics-out", "trace-events"});
    const std::vector<std::string> names =
        workloads::selectWorkloads(opts.find("workload")).orFatal();
    const uint64_t warmup = opts.scaledInsts("warmup", 1'000'000);
    const uint64_t measure = opts.scaledInsts("insts", 3'000'000);
    const std::string machine = opts.getString("machine", "64C");
    const unsigned jobs = parseJobs(opts, 0).orFatal();

    const std::string metrics_out = opts.getString("metrics-out", "");
    const std::string trace_events = opts.getString("trace-events", "");
    if (!metrics_out.empty() || !trace_events.empty())
        metrics::setEnabled(true);

    // One job per workload: prepare + annotate + simulate; results are
    // printed in canonical order regardless of completion order.
    SweepRunner runner(jobs);
    std::vector<Job<core::MlpResult>> cells;
    for (const auto &name : names) {
        cells.push_back(runner.defer<core::MlpResult>(
            name, [name, warmup, measure, &machine] {
                metrics::ScopedLabel wl_label(name);
                metrics::ScopedLabel cfg_label(
                    machineByName(machine).metricLabel());
                core::TraceSpec spec;
                spec.workload = name;
                spec.seed = workloads::workloadSeed(name);
                spec.totalInsts = warmup + measure;
                spec.annotation.warmupInsts = warmup;
                const auto trace = core::PreparedTrace::make(spec).orFatal();

                core::MlpConfig cfg = machineByName(machine);
                cfg.warmupInsts = warmup;
                return core::runMlp(cfg, trace.context());
            }));
    }
    runner.runAll();

    for (size_t w = 0; w < names.size(); ++w) {
        const std::string &name = names[w];
        const auto &r = cells[w].get();

        std::printf("== %s on %s ==\n", name.c_str(), machine.c_str());
        std::printf("epochs: %llu   accesses: %llu   MLP: %.3f   "
                    "epoch arrival rate: %.4f per instruction\n",
                    (unsigned long long)r.epochs,
                    (unsigned long long)r.usefulAccesses, r.mlp(),
                    r.measuredInsts
                        ? double(r.epochs) / double(r.measuredInsts)
                        : 0.0);

        TextTable table({"burst size", "epochs", "fraction",
                         "cumulative"});
        uint64_t running = 0;
        for (const auto &[size, count] :
             r.accessesPerEpoch.buckets()) {
            running += count;
            if (size > 16 && count < r.epochs / 1000)
                continue; // compress the long tail
            table.addRow({std::to_string(size), std::to_string(count),
                          TextTable::num(double(count) /
                                             double(r.epochs),
                                         4),
                          TextTable::num(double(running) /
                                             double(r.epochs),
                                         4)});
        }
        std::printf("%s", table.render().c_str());
        std::printf("p50/p90/p99 burst size: %llu / %llu / %llu\n\n",
                    (unsigned long long)r.accessesPerEpoch.quantile(0.5),
                    (unsigned long long)r.accessesPerEpoch.quantile(0.9),
                    (unsigned long long)
                        r.accessesPerEpoch.quantile(0.99));
    }

    if (!metrics_out.empty()) {
        metrics::JsonValue meta = metrics::JsonValue::object();
        meta.set("tool", "burst_profile");
        meta.set("machine", machine);
        meta.set("warmup_insts", warmup);
        meta.set("measure_insts", measure);
        metrics::writeSnapshotFile(metrics_out, std::move(meta)).orFatal();
    }
    if (!trace_events.empty())
        metrics::writeTraceEventsFile(trace_events).orFatal();
    return 0;
}
