/**
 * @file
 * A realistic study: how should a database-facing core spend its
 * transistors? Sweeps window size, issue aggressiveness and ROB
 * decoupling on the OLTP workload, translates MLP into projected
 * speed-up with the Section 2.2 performance model, and prints the
 * epoch-inhibitor breakdown that explains *why* each step helps.
 *
 * Run: ./database_study [--insts N] [--latency CYCLES]
 */
#include <cstdio>

#include "core/cpi_model.hh"
#include "core/mlpsim.hh"
#include "util/options.hh"
#include "util/table.hh"
#include "workloads/database.hh"

using namespace mlpsim;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    opts.rejectUnknown({"insts", "latency"});
    const uint64_t insts = opts.scaledInsts("insts", 2'000'000);
    const uint64_t warmup = insts / 4;
    const double latency = opts.getDouble("latency", 1000.0);

    workloads::DatabaseWorkload database;
    trace::TraceBuffer buffer("database");
    buffer.fill(database, insts);
    core::AnnotationOptions annotation;
    annotation.warmupInsts = warmup;
    const auto annotated =
        core::AnnotatedTrace::make(buffer, annotation).orFatal();

    // Representative on-chip parameters for the projection (measure
    // them with cyclesim::CycleSim for full fidelity; see
    // bench/figure11_overall_performance.cpp).
    const double cpi_perf = 0.9, overlap_cm = 0.15;

    struct Step
    {
        const char *what;
        core::MlpConfig cfg;
    };
    std::vector<Step> steps;
    steps.push_back({"32-entry window, conservative issue (A)",
                     core::MlpConfig::sized(32, core::IssueConfig::A)});
    steps.push_back({"64-entry window, speculative loads (C)",
                     core::MlpConfig::sized(64, core::IssueConfig::C)});
    steps.push_back({"128-entry window, OoO branches (D)",
                     core::MlpConfig::sized(128, core::IssueConfig::D)});
    {
        core::MlpConfig decoupled =
            core::MlpConfig::sized(64, core::IssueConfig::D);
        decoupled.robSize = 256;
        steps.push_back({"64-entry window + 256-entry ROB", decoupled});
    }
    steps.push_back({"runahead execution", core::MlpConfig::runahead()});

    TextTable table({"machine", "MLP", "proj CPI", "speedup vs first",
                     "top inhibitor"});
    double base_cpi = 0.0;
    for (auto &step : steps) {
        step.cfg.warmupInsts = warmup;
        const auto r = core::runMlp(step.cfg, annotated.context());
        core::CpiModelParams params{cpi_perf, overlap_cm,
                                    r.missRatePer100() / 100.0, latency,
                                    r.mlp()};
        const double cpi = core::estimateCpi(params);
        if (base_cpi == 0.0)
            base_cpi = cpi;

        // The most frequent condition that capped each epoch.
        core::Inhibitor top = core::Inhibitor::Maxwin;
        for (size_t i = 0; i < core::numInhibitors; ++i) {
            const auto inh = static_cast<core::Inhibitor>(i);
            if (r.inhibitors[inh] > r.inhibitors[top])
                top = inh;
        }
        table.addRow({step.what, TextTable::num(r.mlp()),
                      TextTable::num(cpi),
                      TextTable::num(core::speedupPercent(base_cpi, cpi),
                                     0) +
                          "%",
                      core::inhibitorName(top)});
    }

    std::printf("OLTP core study at %.0f-cycle off-chip latency "
                "(%zu-instruction trace)\n\n",
                latency, buffer.size());
    std::printf("%s", table.render().c_str());
    std::printf("\nReading the last column bottom-up is the paper's "
                "story: capacity stops\nmattering once serialization "
                "and unresolvable branches dominate, and\nrunahead "
                "sidesteps both.\n");
    return 0;
}
