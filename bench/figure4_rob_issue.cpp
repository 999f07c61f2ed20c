/**
 * @file
 * Figure 4: MLP as a function of ROB/issue-window size (16..256,
 * coupled) and issue-constraint configuration (A..E of Table 2), for
 * each workload. Paper shape: curves separate as the window grows;
 * relaxing issue constraints matters little at 16 and a lot at 256;
 * config E (non-serializing atomics) breaks away most visibly for
 * SPECjbb2000.
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
    printBanner("figure4_rob_issue",
                "Figure 4 (impact of ROB size and issue constraints)",
                setup);

    const auto wls = prepareAll(setup, opts);

    // Enqueue the whole workload x window x config grid, run it
    // concurrently, then format in submission order.
    Sweep sweep(setup);
    std::vector<Job<core::MlpResult>> cells;
    for (const auto &wl : wls) {
        for (unsigned window : {16u, 32u, 64u, 128u, 256u}) {
            for (auto ic :
                 {core::IssueConfig::A, core::IssueConfig::B,
                  core::IssueConfig::C, core::IssueConfig::D,
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
        TextTable table({"window/ROB", "A", "B", "C", "D", "E"});
        for (unsigned window : {16u, 32u, 64u, 128u, 256u}) {
            std::vector<std::string> row{std::to_string(window)};
            for (int ic = 0; ic < 5; ++ic)
                row.push_back(TextTable::num(cells[cell++].get().mlp()));
            table.addRow(std::move(row));
        }
        std::printf("%s\n", table.render().c_str());
    }
    std::printf("Paper anchors (config C): database 1.27/1.38/1.47 at "
                "32/64/128; jbb 1.11/1.13/1.19; web 1.22/1.28/1.31.\n");
    writeBenchOutputs(setup, "figure4_rob_issue");
    return 0;
}
