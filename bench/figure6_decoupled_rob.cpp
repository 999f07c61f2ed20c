/**
 * @file
 * Figure 6: decoupling the reorder buffer from the issue window. For
 * issue windows {16, 32, 64, 128} and configurations {C, D, E}, MLP
 * with ROB = 1X/2X/4X/8X the window and with a 2048-entry ROB, plus
 * the "INF" machine (window 2048, ROB 2048, config E). Paper
 * headlines: enlarging the ROB of "64D" from 64 to 256 gains
 * +16%/+12%/+2% (db/jbb/web); for "64E" from 64 to 1024 it gains
 * +51%/+49%/+22%; the INF bar matches runahead execution.
 */
#include <cstdio>

#include "bench_common.hh"

using namespace mlpsim;
using namespace mlpsim::bench;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    const BenchSetup setup = BenchSetup::fromOptions(opts);
    printBanner("figure6_decoupled_rob",
                "Figure 6 (decoupling issue window and ROB sizes)",
                setup);

    const auto wls = prepareAll(setup, opts);

    Sweep sweep(setup);
    struct Cells
    {
        std::vector<Job<core::MlpResult>> grid; //!< 12 rows x 5 columns
        Job<core::MlpResult> inf;
        Job<core::MlpResult> d64, d64_256, e64, e64_1024;
    };
    std::vector<Cells> perWl(wls.size());
    for (size_t w = 0; w < wls.size(); ++w) {
        Cells &cells = perWl[w];
        for (unsigned window : {16u, 32u, 64u, 128u}) {
            for (auto ic : {core::IssueConfig::C, core::IssueConfig::D,
                            core::IssueConfig::E}) {
                for (unsigned mult : {1u, 2u, 4u, 8u}) {
                    core::MlpConfig cfg =
                        core::MlpConfig::sized(window, ic);
                    cfg.robSize = window * mult;
                    cells.grid.push_back(sweep.mlp(cfg, wls[w]));
                }
                core::MlpConfig big = core::MlpConfig::sized(window, ic);
                big.robSize = 2048;
                cells.grid.push_back(sweep.mlp(big, wls[w]));
            }
        }
        cells.inf = sweep.mlp(core::MlpConfig::infinite(), wls[w]);

        // The two expansions the paper calls out explicitly.
        core::MlpConfig d64 = core::MlpConfig::sized(64,
                                                     core::IssueConfig::D);
        core::MlpConfig d64_256 = d64;
        d64_256.robSize = 256;
        core::MlpConfig e64 = core::MlpConfig::sized(64,
                                                     core::IssueConfig::E);
        core::MlpConfig e64_1024 = e64;
        e64_1024.robSize = 1024;
        cells.d64 = sweep.mlp(d64, wls[w]);
        cells.d64_256 = sweep.mlp(d64_256, wls[w]);
        cells.e64 = sweep.mlp(e64, wls[w]);
        cells.e64_1024 = sweep.mlp(e64_1024, wls[w]);
    }
    sweep.run();

    for (size_t w = 0; w < wls.size(); ++w) {
        const Cells &cells = perWl[w];
        std::printf("-- %s --\n", wls[w].name().c_str());
        TextTable table({"window+cfg", "1X", "2X", "4X", "8X", "2048"});
        size_t cell = 0;
        for (unsigned window : {16u, 32u, 64u, 128u}) {
            for (auto ic : {core::IssueConfig::C, core::IssueConfig::D,
                            core::IssueConfig::E}) {
                std::vector<std::string> row{
                    std::to_string(window) +
                    core::issueConfigName(ic)};
                for (int col = 0; col < 5; ++col)
                    row.push_back(
                        TextTable::num(cells.grid[cell++].get().mlp()));
                table.addRow(std::move(row));
            }
        }
        std::printf("%s", table.render().c_str());
        std::printf("INF (window 2048, ROB 2048, config E): %.2f\n\n",
                    cells.inf.get().mlp());
    }

    std::printf("paper call-outs (gain from enlarging the ROB):\n");
    for (size_t w = 0; w < wls.size(); ++w) {
        const Cells &cells = perWl[w];
        const double g1 = 100.0 * (cells.d64_256.get().mlp() /
                                       cells.d64.get().mlp() -
                                   1.0);
        const double g2 = 100.0 * (cells.e64_1024.get().mlp() /
                                       cells.e64.get().mlp() -
                                   1.0);
        std::printf("  %-12s 64D rob 64->256: %+.0f%% (paper db/jbb/web "
                    "+16/+12/+2)   64E rob 64->1024: %+.0f%% (paper "
                    "+51/+49/+22)\n",
                    wls[w].name().c_str(), g1, g2);
    }
    writeBenchOutputs(setup, "figure6_decoupled_rob");
    return 0;
}
