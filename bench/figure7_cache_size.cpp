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

    // One annotation variant per L2 size over each workload's one
    // generated trace; the engine config stays the default.
    const uint64_t sizes_kb[] = {512, 1024, 2048, 4096, 8192};
    const auto sizeLabel = [](uint64_t kb) {
        return kb >= 1024 ? std::to_string(kb / 1024) + "MB"
                          : std::to_string(kb) + "KB";
    };
    std::vector<Variant> variants;
    for (uint64_t kb : sizes_kb) {
        Variant variant{"l2_" + sizeLabel(kb), setup.annotation};
        variant.annotation.hierarchy.l2.sizeBytes = kb * 1024;
        variants.push_back(std::move(variant));
    }
    const auto traces = prepareAll(setup, opts, variants);

    Sweep sweep(setup);
    std::vector<Job<core::MlpResult>> cells;
    for (const auto &trace : traces)
        cells.push_back(sweep.mlp(core::MlpConfig::defaultOoO(), trace));
    sweep.run();

    TextTable table({"workload", "L2", "miss/100", "MLP(64C)"});
    const size_t numWorkloads = traces.size() / variants.size();
    for (size_t w = 0; w < numWorkloads; ++w) {
        for (size_t v = 0; v < variants.size(); ++v) {
            const size_t i = v * numWorkloads + w;
            const auto &misses = traces[i].annotated().misses();
            table.addRow({traces[i].name(), sizeLabel(sizes_kb[v]),
                          TextTable::num(misses.missRatePer100(), 3),
                          TextTable::num(cells[i].get().mlp())});
        }
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nPaper shape: MLP falls with L2 size for database and "
                "SPECjbb2000,\nrises for SPECweb99.\n");
    writeBenchOutputs(setup, "figure7_cache_size");
    return 0;
}
