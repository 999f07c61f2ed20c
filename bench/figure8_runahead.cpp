/**
 * @file
 * Figure 8: impact of runahead execution. MLP of the runahead machine
 * (64-entry issue window, config D, 2048-instruction runahead budget)
 * against the two conventional baselines the paper uses: 64D with a
 * 64-entry ROB and 64D with a 256-entry ROB. Paper gains: +82%/+56%
 * (database), +102%/+81% (SPECjbb2000), +49%/+46% (SPECweb99); the
 * runahead result equals the "INF" machine of Figure 6.
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
    printBanner("figure8_runahead", "Figure 8 (runahead execution)",
                setup);

    const auto wls = prepareAll(setup, opts);

    core::MlpConfig base64 =
        core::MlpConfig::sized(64, core::IssueConfig::D);
    core::MlpConfig base256 = base64;
    base256.robSize = 256;

    Sweep sweep(setup);
    std::vector<Job<core::MlpResult>> cells;
    for (const auto &wl : wls) {
        cells.push_back(sweep.mlp(base64, wl));
        cells.push_back(sweep.mlp(base256, wl));
        cells.push_back(sweep.mlp(core::MlpConfig::runahead(), wl));
        cells.push_back(sweep.mlp(core::MlpConfig::infinite(), wl));
    }
    sweep.run();

    TextTable table({"workload", "64D/rob64", "64D/rob256", "RAE",
                     "INF", "RAE vs rob64", "RAE vs rob256"});
    size_t cell = 0;
    for (const auto &wl : wls) {
        const double m64 = cells[cell++].get().mlp();
        const double m256 = cells[cell++].get().mlp();
        const double rae = cells[cell++].get().mlp();
        const double inf = cells[cell++].get().mlp();

        table.addRow({wl.name(), TextTable::num(m64),
                      TextTable::num(m256), TextTable::num(rae),
                      TextTable::num(inf),
                      TextTable::num(100.0 * (rae / m64 - 1.0), 0) + "%",
                      TextTable::num(100.0 * (rae / m256 - 1.0), 0) +
                          "%"});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nPaper: +82%%/+56%% (db), +102%%/+81%% (jbb), "
                "+49%%/+46%% (web); RAE == INF.\n");
    writeBenchOutputs(setup, "figure8_runahead");
    return 0;
}
