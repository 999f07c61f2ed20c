/**
 * @file
 * Figure 5: the relative frequency of the conditions that prevent more
 * MLP from being uncovered in an epoch (Imiss start, Maxwin, Mispred
 * br, Imiss end, Missing load, Dep store, Serialize), per workload
 * across window sizes and issue configurations. Paper headlines:
 * instruction misses trigger 12-18% of database and 10-13% of web
 * epochs; beyond 32-entry windows Maxwin is at most ~half of the
 * inhibitors; serializing instructions dominate at large windows,
 * especially for SPECjbb2000.
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
    printBanner("figure5_inhibitors",
                "Figure 5 (factors inhibiting further MLP)", setup);

    const auto wls = prepareAll(setup, opts);

    Sweep sweep(setup);
    std::vector<Job<core::MlpResult>> cells;
    for (const auto &wl : wls) {
        for (unsigned window : {32u, 64u, 128u, 256u}) {
            for (auto ic : {core::IssueConfig::A, core::IssueConfig::C,
                            core::IssueConfig::E}) {
                cells.push_back(
                    sweep.mlp(core::MlpConfig::sized(window, ic), wl));
            }
        }
    }
    sweep.run();

    size_t cell = 0;
    for (const auto &wl : wls) {
        std::printf("-- %s --\n", wl.name().c_str());
        std::vector<std::string> header{"config"};
        for (size_t i = 0; i < core::numInhibitors; ++i)
            header.push_back(
                core::inhibitorName(static_cast<core::Inhibitor>(i)));
        TextTable table(std::move(header));

        for (unsigned window : {32u, 64u, 128u, 256u}) {
            for (auto ic : {core::IssueConfig::A, core::IssueConfig::C,
                            core::IssueConfig::E}) {
                const auto &r = cells[cell++].get();
                std::vector<std::string> row{
                    std::to_string(window) +
                    core::issueConfigName(ic)};
                for (size_t i = 0; i < core::numInhibitors; ++i) {
                    row.push_back(TextTable::num(
                        100.0 * r.inhibitors.fraction(
                                    static_cast<core::Inhibitor>(i)),
                        1));
                }
                table.addRow(std::move(row));
            }
        }
        std::printf("%s\n", table.render().c_str());
    }
    std::printf("(percent of epochs; rows are windowSize+issueConfig)\n");
    writeBenchOutputs(setup, "figure5_inhibitors");
    return 0;
}
