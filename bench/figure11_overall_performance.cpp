/**
 * @file
 * Figure 11: overall performance improvement relative to the "64D"
 * machine at 1000-cycle off-chip latency. CPI of each configuration is
 * estimated with the Section 2.2 model from its epoch-model MLP and
 * miss rate plus CPI_perf / Overlap_CM measured once on the
 * cycle-accurate simulator (exactly the paper's method). Paper
 * headlines: runahead improves overall performance by 60%/44%/11%
 * (db/jbb/web); runahead + perfect branch & value prediction reach
 * +174%/+103%/+21%.
 */
#include <cstdio>

#include "bench_common.hh"
#include "core/cpi_model.hh"

using namespace mlpsim;
using namespace mlpsim::bench;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    const BenchSetup setup = BenchSetup::fromOptions(opts);
    printBanner("figure11_overall_performance",
                "Figure 11 (overall performance vs 64D, 1000-cycle "
                "latency)",
                setup);

    constexpr double penalty = 1000.0;

    core::MlpConfig cfg64d = core::MlpConfig::sized(64,
                                                    core::IssueConfig::D);
    core::MlpConfig cfg64d_rob256 = cfg64d;
    cfg64d_rob256.robSize = 256;
    core::MlpConfig cfg128d =
        core::MlpConfig::sized(128, core::IssueConfig::D);
    core::MlpConfig cfg64e = core::MlpConfig::sized(64,
                                                    core::IssueConfig::E);
    core::MlpConfig rae = core::MlpConfig::runahead();
    core::MlpConfig rae_vp = rae;
    rae_vp.valuePrediction = true;

    const struct
    {
        const char *label;
        core::MlpConfig cfg;
        bool perfectPredictors; //!< perfect branch + value prediction
    } machines[] = {
        {"64E", cfg64e, false},
        {"128D", cfg128d, false},
        {"64D/rob256", cfg64d_rob256, false},
        {"RAE", rae, false},
        {"RAE+VP", rae_vp, false},
        {"RAE.perfVP.perfBP", rae_vp, true},
    };

    // Each workload's trace, plainly annotated and as the perfect
    // branch + value prediction variant the RAE.perfVP.perfBP machine
    // runs over.
    Variant perfect_predictors{"perfBP+perfVP", setup.annotation};
    perfect_predictors.annotation.branch.perfect = true;
    perfect_predictors.annotation.value.perfect = true;
    const auto traces = prepareAll(
        setup, opts, {Variant{"", setup.annotation}, perfect_predictors});
    const size_t numWorkloads = traces.size() / 2;

    constexpr size_t numMachines = sizeof(machines) / sizeof(machines[0]);

    struct Cells
    {
        Job<cyclesim::CycleSimResult> cycPerfect, cycTimed;
        Job<core::MlpResult> base;
        std::vector<Job<core::MlpResult>> machine;
    };

    Sweep sweep(setup);
    std::vector<Cells> perWl(numWorkloads);
    for (size_t w = 0; w < numWorkloads; ++w) {
        const auto &wl = traces[w];
        Cells &cells = perWl[w];

        // CPI_perf and Overlap_CM measured once on the timed pipeline.
        cyclesim::CycleSimConfig perfect;
        perfect.perfectL2 = true;
        cells.cycPerfect = sweep.cycleSim(perfect, wl);
        cyclesim::CycleSimConfig timed;
        timed.offChipLatency = unsigned(penalty);
        cells.cycTimed = sweep.cycleSim(timed, wl);

        cells.base = sweep.mlp(cfg64d, wl);
        for (const auto &m : machines) {
            cells.machine.push_back(sweep.mlp(
                m.cfg, m.perfectPredictors ? traces[numWorkloads + w] : wl));
        }
    }
    sweep.run();

    TextTable table({"workload", "machine", "MLP", "est CPI",
                     "improvement"});
    for (size_t w = 0; w < numWorkloads; ++w) {
        const auto &wl = traces[w];
        const Cells &cells = perWl[w];

        const double cpi_perf = cells.cycPerfect.get().cpi();
        const auto &measured = cells.cycTimed.get();
        const double overlap = core::solveOverlapCM(
            measured.cpi(), cpi_perf, measured.missRatePer100() / 100.0,
            penalty, measured.mlp());

        auto estimate = [&](const core::MlpResult &r) {
            core::CpiModelParams params{cpi_perf, overlap,
                                        r.missRatePer100() / 100.0,
                                        penalty, r.mlp()};
            return core::estimateCpi(params);
        };

        const double base_cpi = estimate(cells.base.get());
        for (size_t mi = 0; mi < numMachines; ++mi) {
            const auto &r = cells.machine[mi].get();
            const double cpi = estimate(r);
            table.addRow({wl.name(), machines[mi].label,
                          TextTable::num(r.mlp()), TextTable::num(cpi),
                          TextTable::num(core::speedupPercent(base_cpi,
                                                              cpi),
                                         0) +
                              "%"});
        }
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nPaper: RAE +60%%/+44%%/+11%%; "
                "RAE.perfVP.perfBP +174%%/+103%%/+21%% (db/jbb/web).\n");
    writeBenchOutputs(setup, "figure11_overall_performance");
    return 0;
}
