/**
 * @file
 * Table 4: estimated vs measured CPI. The Section 2.2 model is fed
 * MLP and MissRate from the epoch model plus CPI_perf and Overlap_CM
 * measured by the cycle-accurate simulator — both for the same issue
 * configuration and cross-substituted from *another* configuration —
 * and compared against the CPI the cycle-accurate simulator measures
 * directly. Window/ROB = 64, MissPenalty = 1000 (the paper's setup);
 * the paper reports all estimates within 2% of measured.
 */
#include <cmath>
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
    printBanner("table4_cpi_estimation",
                "Table 4 (estimated vs measured CPI, window 64, "
                "penalty 1000)",
                setup);

    constexpr double penalty = 1000.0;
    const core::IssueConfig configs[] = {core::IssueConfig::A,
                                         core::IssueConfig::B,
                                         core::IssueConfig::C};

    TextTable table({"workload", "config", "est(A)", "est(B)", "est(C)",
                     "measured", "worst err%"});

    const auto wls = prepareAll(setup, opts);

    struct Cells
    {
        Job<cyclesim::CycleSimResult> perfect;
        std::vector<Job<cyclesim::CycleSimResult>> timed;
        std::vector<Job<core::MlpResult>> model;
    };

    Sweep sweep(setup);
    std::vector<Cells> perWl(wls.size());
    for (size_t w = 0; w < wls.size(); ++w) {
        cyclesim::CycleSimConfig perfect;
        perfect.perfectL2 = true;
        perWl[w].perfect = sweep.cycleSim(perfect, wls[w]);
        for (int j = 0; j < 3; ++j) {
            cyclesim::CycleSimConfig cfg;
            cfg.issue = configs[j];
            cfg.offChipLatency = unsigned(penalty);
            perWl[w].timed.push_back(sweep.cycleSim(cfg, wls[w]));
        }
        for (int i = 0; i < 3; ++i) {
            perWl[w].model.push_back(sweep.mlp(
                core::MlpConfig::sized(64, configs[i]), wls[w]));
        }
    }
    sweep.run();

    double global_worst = 0.0;
    for (size_t w = 0; w < wls.size(); ++w) {
        const auto &wl = wls[w];
        // Measured CPI / Overlap_CM per configuration (timed runs).
        double measured[3], overlap[3];
        const double cpi_perf = perWl[w].perfect.get().cpi();

        for (int j = 0; j < 3; ++j) {
            const auto &r = perWl[w].timed[j].get();
            measured[j] = r.cpi();
            overlap[j] = core::solveOverlapCM(
                r.cpi(), cpi_perf, r.missRatePer100() / 100.0, penalty,
                r.mlp());
        }

        // Epoch-model MLP / miss rate per configuration.
        for (int i = 0; i < 3; ++i) {
            const auto &model = perWl[w].model[i].get();
            std::vector<std::string> row{
                wl.name(), core::issueConfigName(configs[i])};
            double worst = 0.0;
            for (int j = 0; j < 3; ++j) {
                core::CpiModelParams params{
                    cpi_perf, overlap[j],
                    model.missRatePer100() / 100.0, penalty,
                    model.mlp()};
                const double est = core::estimateCpi(params);
                row.push_back(TextTable::num(est));
                worst = std::max(
                    worst,
                    100.0 * std::abs(est - measured[i]) / measured[i]);
            }
            row.push_back(TextTable::num(measured[i]));
            row.push_back(TextTable::num(worst, 1));
            global_worst = std::max(global_worst, worst);
            table.addRow(std::move(row));
        }
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nworst estimation error = %.1f%% (paper: within "
                "2%%)\n",
                global_worst);
    writeBenchOutputs(setup, "table4_cpi_estimation");
    return 0;
}
