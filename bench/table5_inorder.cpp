/**
 * @file
 * Table 5: MLP of in-order issue — stall-on-miss vs stall-on-use —
 * plus the comparison the paper draws in the text: the default "64C"
 * out-of-order machine improves MLP over in-order stall-on-use by 30%
 * (database), 12% (SPECjbb2000) and 13% (SPECweb99).
 */
#include <cstdio>

#include "bench_common.hh"
#include "workloads/paper_targets.hh"

using namespace mlpsim;
using namespace mlpsim::bench;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    const BenchSetup setup = BenchSetup::fromOptions(opts);
    printBanner("table5_inorder", "Table 5 (MLP of in-order issue)",
                setup);

    const auto wls = prepareAll(setup, opts);

    core::MlpConfig som;
    som.mode = core::CoreMode::InOrderStallOnMiss;
    core::MlpConfig sou;
    sou.mode = core::CoreMode::InOrderStallOnUse;

    Sweep sweep(setup);
    std::vector<Job<core::MlpResult>> cells;
    for (const auto &wl : wls) {
        cells.push_back(sweep.mlp(som, wl));
        cells.push_back(sweep.mlp(sou, wl));
        cells.push_back(sweep.mlp(core::MlpConfig::defaultOoO(), wl));
    }
    sweep.run();

    TextTable table({"workload", "stall-on-miss", "stall-on-use",
                     "64C", "64C/sou", "|", "paper:som", "sou"});
    size_t cell = 0;
    for (const auto &wl : wls) {
        const double m_som = cells[cell++].get().mlp();
        const double m_sou = cells[cell++].get().mlp();
        const double m_ooo = cells[cell++].get().mlp();
        const auto p = workloads::paperTargets(wl.name());
        table.addRow({wl.name(), TextTable::num(m_som),
                      TextTable::num(m_sou), TextTable::num(m_ooo),
                      TextTable::num(m_ooo / m_sou) + "x", "|",
                      TextTable::num(p.mlpSom), TextTable::num(p.mlpSou)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nPaper: OoO default gains +30%%/+12%%/+13%% over "
                "stall-on-use; stall-on-use only marginally above "
                "stall-on-miss.\n");
    writeBenchOutputs(setup, "table5_inorder");
    return 0;
}
