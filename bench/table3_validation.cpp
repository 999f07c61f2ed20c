/**
 * @file
 * Table 3: validation of the epoch-model simulator against the
 * cycle-accurate reference. MLP for window/ROB sizes {32, 64, 128} x
 * issue configurations {A, B, C}, measured by the timed pipeline at
 * off-chip latencies 200/500/1000 cycles and by the (timing-free)
 * epoch model. The paper's claim: the two agree closely, and best at
 * long latencies.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_common.hh"

using namespace mlpsim;
using namespace mlpsim::bench;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    const BenchSetup setup = BenchSetup::fromOptions(opts);
    printBanner("table3_validation",
                "Table 3 (MLPsim vs cycle-accurate simulator)", setup);

    TextTable table({"workload", "window", "config", "cyc200", "cyc500",
                     "cyc1000", "MLPsim", "max|err|"});

    const auto wls = prepareAll(setup, opts);

    struct RowCells
    {
        std::vector<Job<cyclesim::CycleSimResult>> cyc;
        Job<core::MlpResult> model;
    };

    Sweep sweep(setup);
    std::vector<RowCells> rows;
    for (const auto &wl : wls) {
        for (unsigned window : {32u, 64u, 128u}) {
            for (auto ic : {core::IssueConfig::A, core::IssueConfig::B,
                            core::IssueConfig::C}) {
                RowCells row;
                for (unsigned lat : {200u, 500u, 1000u}) {
                    cyclesim::CycleSimConfig cfg;
                    cfg.issue = ic;
                    cfg.issueWindowSize = window;
                    cfg.robSize = window;
                    cfg.offChipLatency = lat;
                    row.cyc.push_back(sweep.cycleSim(cfg, wl));
                }
                row.model = sweep.mlp(core::MlpConfig::sized(window, ic), wl);
                rows.push_back(std::move(row));
            }
        }
    }
    sweep.run();

    double worst_err_1000 = 0.0;
    size_t rowIdx = 0;
    for (const auto &wl : wls) {
        for (unsigned window : {32u, 64u, 128u}) {
            for (auto ic : {core::IssueConfig::A, core::IssueConfig::B,
                            core::IssueConfig::C}) {
                const RowCells &cells = rows[rowIdx++];
                double cyc[3] = {};
                for (int l = 0; l < 3; ++l)
                    cyc[l] = cells.cyc[l].get().mlp();
                const double model = cells.model.get().mlp();
                double err = 0.0;
                for (double c : cyc)
                    err = std::max(err, std::abs(c - model));
                worst_err_1000 = std::max(
                    worst_err_1000, std::abs(cyc[2] - model));
                table.addRow({wl.name(), std::to_string(window),
                              core::issueConfigName(ic),
                              TextTable::num(cyc[0]),
                              TextTable::num(cyc[1]),
                              TextTable::num(cyc[2]),
                              TextTable::num(model),
                              TextTable::num(err)});
            }
        }
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nworst |cyc1000 - MLPsim| = %.3f "
                "(paper: near-identical at 1000 cycles)\n",
                worst_err_1000);
    writeBenchOutputs(setup, "table3_validation");
    return 0;
}
