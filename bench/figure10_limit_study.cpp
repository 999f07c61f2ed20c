/**
 * @file
 * Figure 10: limit study. Starting from (upper) a runahead machine and
 * (lower) a conventional 64-entry-window / 256-entry-ROB config-D
 * machine, MLP with perfect instruction prefetching (perfI), perfect
 * value prediction (perfVP), perfect branch prediction (perfBP) and
 * perfVP+perfBP. Paper: on RAE, each perfect feature is worth
 * +39..48% (db) / +21..23% (web); perfI is worthless for jbb but
 * perfVP/perfBP give +56%/+45%; perfVP+perfBP reach +134%/+215%/+57%;
 * gains on the non-RAE baseline are modest.
 */
#include <array>
#include <cstdio>

#include "bench_common.hh"

using namespace mlpsim;
using namespace mlpsim::bench;

namespace {

/** Re-annotate a workload with perfect-feature substrates. */
core::PreparedTrace
prepareVariant(const std::string &name, const BenchSetup &base,
               bool perf_i, bool perf_bp, bool perf_vp)
{
    BenchSetup setup = base;
    setup.annotation.hierarchy.perfectInstFetch = perf_i;
    setup.annotation.branch.perfect = perf_bp;
    setup.annotation.value.perfect = perf_vp;
    return prepareWorkload(name, setup);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    const BenchSetup setup = BenchSetup::fromOptions(opts);
    printBanner("figure10_limit_study",
                "Figure 10 (perfect I-fetch / branch / value "
                "prediction)",
                setup);

    core::MlpConfig conventional =
        core::MlpConfig::sized(64, core::IssueConfig::D);
    conventional.robSize = 256;

    const struct
    {
        const char *label;
        core::MlpConfig cfg;
    } bases[] = {{"RAE", core::MlpConfig::runahead()},
                 {"64D/rob256", conventional}};

    const struct
    {
        bool i, bp, vp;
    } variants[] = {{false, false, false},
                    {true, false, false},
                    {false, false, true},
                    {false, true, false},
                    {false, true, true}};

    const std::vector<std::string> names =
        workloads::selectWorkloads(opts.find("workload")).orFatal();

    // One cell per (workload x variant): it materialises the variant's
    // re-annotated trace once and runs *both* baselines over it (the
    // serial version prepared each variant twice, once per baseline).
    Sweep sweep(setup);
    std::vector<Job<std::array<double, 2>>> cells;
    for (const auto &name : names) {
        for (int v = 0; v < 5; ++v) {
            const bool perf_i = variants[v].i;
            const bool perf_bp = variants[v].bp;
            const bool perf_vp = variants[v].vp;
            cells.push_back(sweep.task<std::array<double, 2>>(
                name + " variant " + std::to_string(v),
                [&, name, perf_i, perf_bp, perf_vp] {
                    const auto wl = prepareVariant(name, setup, perf_i,
                                                   perf_bp, perf_vp);
                    std::array<double, 2> mlp{};
                    for (int b = 0; b < 2; ++b) {
                        core::MlpConfig cfg = bases[b].cfg;
                        cfg.valuePrediction = perf_vp;
                        mlp[b] = runMlp(cfg, wl).mlp();
                    }
                    return mlp;
                }));
        }
    }
    sweep.run();

    for (int b = 0; b < 2; ++b) {
        std::printf("-- baseline: %s --\n", bases[b].label);
        TextTable table({"workload", "base", "+perfI", "+perfVP",
                         "+perfBP", "+perfVP+perfBP", "max gain"});
        for (size_t n = 0; n < names.size(); ++n) {
            double mlp[5];
            for (int v = 0; v < 5; ++v)
                mlp[v] = cells[n * 5 + v].get()[b];
            table.addRow(
                {names[n], TextTable::num(mlp[0]), TextTable::num(mlp[1]),
                 TextTable::num(mlp[2]), TextTable::num(mlp[3]),
                 TextTable::num(mlp[4]),
                 TextTable::num(100.0 * (mlp[4] / mlp[0] - 1.0), 0) +
                     "%"});
        }
        std::printf("%s\n", table.render().c_str());
    }
    std::printf("Paper (RAE baseline): perfI/perfVP/perfBP each "
                "+39-48%% db, +21-23%% web; perfI +0%% jbb;\n"
                "perfVP+perfBP: +134%% db, +215%% jbb, +57%% web.\n");
    writeBenchOutputs(setup, "figure10_limit_study");
    return 0;
}
