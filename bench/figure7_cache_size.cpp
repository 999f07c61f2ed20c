/**
 * @file
 * Figure 7: impact of L2 cache size on MLP (default "64C" machine).
 * The paper's shape: growing the L2 lowers MLP for the database
 * workload and SPECjbb2000 (surviving misses spread out), but RAISES
 * it for SPECweb99, whose eliminated misses come mostly from
 * low-MLP epochs.
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
    printBanner("figure7_cache_size", "Figure 7 (impact of L2 size)",
                setup);

    // Each cell re-annotates its workload with a different L2, so the
    // whole prepared trace is private to (and owned by) the cell.
    struct CellResult
    {
        double missPer100;
        double mlp;
    };

    Sweep sweep(setup);
    struct CellRef
    {
        std::string name;
        uint64_t kb;
        Job<CellResult> job;
    };
    std::vector<CellRef> cells;
    for (const auto &name :
         workloads::selectWorkloads(opts.find("workload")).orFatal()) {
        for (uint64_t kb : {512u, 1024u, 2048u, 4096u, 8192u}) {
            BenchSetup sized = setup;
            sized.annotation.hierarchy.l2.sizeBytes = kb * 1024;
            auto job = sweep.task<CellResult>(
                name + " l2=" + std::to_string(kb) + "KB",
                [name, sized] {
                    const auto wl = prepareWorkload(name, sized);
                    const auto r =
                        runMlp(core::MlpConfig::defaultOoO(), wl);
                    return CellResult{
                        wl.annotated().misses().missRatePer100(),
                        r.mlp()};
                });
            cells.push_back(CellRef{name, kb, std::move(job)});
        }
    }
    sweep.run();

    TextTable table({"workload", "L2", "miss/100", "MLP(64C)"});
    for (const auto &cell : cells) {
        table.addRow({cell.name,
                      cell.kb >= 1024
                          ? std::to_string(cell.kb / 1024) + "MB"
                          : std::to_string(cell.kb) + "KB",
                      TextTable::num(cell.job.get().missPer100, 3),
                      TextTable::num(cell.job.get().mlp)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nPaper shape: MLP falls with L2 size for database and "
                "SPECjbb2000,\nrises for SPECweb99.\n");
    writeBenchOutputs(setup, "figure7_cache_size");
    return 0;
}
