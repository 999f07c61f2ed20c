/**
 * @file
 * Table 1: on-chip and off-chip CPI components, L2 miss rate, MLP and
 * Overlap_CM for the three workloads at 200- and 1000-cycle off-chip
 * latency, measured on the cycle-accurate reference simulator and
 * decomposed with the Section 2.2 performance model.
 */
#include <cstdio>

#include "bench_common.hh"
#include "core/cpi_model.hh"

using namespace mlpsim;
using namespace mlpsim::bench;

namespace {

struct PaperRow
{
    unsigned latency;
    double cpi, cpiOn, cpiOff, missRate, mlp, overlap;
};

const PaperRow paperRows[3][2] = {
    {{200, 2.44, 1.47, 0.97, 0.84, 1.33, 0.20},
     {1000, 7.28, 1.47, 5.81, 0.84, 1.38, 0.18}},
    {{200, 1.45, 1.16, 0.29, 0.19, 1.13, 0.04},
     {1000, 2.80, 1.16, 1.64, 0.19, 1.14, 0.04}},
    {{200, 1.73, 1.62, 0.11, 0.09, 1.25, 0.02},
     {1000, 2.30, 1.62, 0.68, 0.09, 1.29, 0.00}},
};

int
paperIndex(const std::string &name)
{
    if (name == "database")
        return 0;
    if (name == "specjbb2000")
        return 1;
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    const BenchSetup setup = BenchSetup::fromOptions(opts);
    printBanner("table1_cpi_components",
                "Table 1 (CPI decomposition and MLP)", setup);

    TextTable table({"workload", "latency", "CPI", "CPI_on", "CPI_off",
                     "miss/100", "MLP", "OverlapCM", "|", "paper:CPI",
                     "CPI_on", "CPI_off", "miss/100", "MLP",
                     "OverlapCM"});

    const auto wls = prepareAll(setup, opts);

    Sweep sweep(setup);
    struct Cells
    {
        Job<cyclesim::CycleSimResult> perfect;
        std::vector<Job<cyclesim::CycleSimResult>> timed;
    };
    std::vector<Cells> perWl(wls.size());
    for (size_t w = 0; w < wls.size(); ++w) {
        // CPI with a perfect L2 (latency-independent).
        cyclesim::CycleSimConfig perfect;
        perfect.perfectL2 = true;
        perWl[w].perfect = sweep.cycleSim(perfect, wls[w]);
        for (unsigned latency : {200u, 1000u}) {
            cyclesim::CycleSimConfig cfg;
            cfg.offChipLatency = latency;
            perWl[w].timed.push_back(sweep.cycleSim(cfg, wls[w]));
        }
    }
    sweep.run();

    for (size_t w = 0; w < wls.size(); ++w) {
        const auto &wl = wls[w];
        const double cpi_perf = perWl[w].perfect.get().cpi();

        size_t cell = 0;
        for (unsigned latency : {200u, 1000u}) {
            const auto &r = perWl[w].timed[cell++].get();

            const double miss_rate = r.missRatePer100() / 100.0;
            const double overlap = core::solveOverlapCM(
                r.cpi(), cpi_perf, miss_rate, latency, r.mlp());
            core::CpiModelParams params{cpi_perf, overlap, miss_rate,
                                        double(latency), r.mlp()};

            const PaperRow &p =
                paperRows[paperIndex(wl.name())][latency == 1000];
            table.addRow({wl.name(), std::to_string(latency),
                          TextTable::num(r.cpi()),
                          TextTable::num(core::cpiOnChip(params)),
                          TextTable::num(core::cpiOffChip(params)),
                          TextTable::num(r.missRatePer100()),
                          TextTable::num(r.mlp()),
                          TextTable::num(overlap), "|",
                          TextTable::num(p.cpi), TextTable::num(p.cpiOn),
                          TextTable::num(p.cpiOff),
                          TextTable::num(p.missRate),
                          TextTable::num(p.mlp),
                          TextTable::num(p.overlap)});
        }
    }
    std::printf("%s", table.render().c_str());
    writeBenchOutputs(setup, "table1_cpi_components");
    return 0;
}
