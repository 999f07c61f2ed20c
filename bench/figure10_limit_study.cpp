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
#include <cstdio>
#include <iterator>

#include "bench_common.hh"

using namespace mlpsim;
using namespace mlpsim::bench;

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
        const char *label;
        bool i, bp, vp;
    } substrates[] = {{"base", false, false, false},
                      {"perfI", true, false, false},
                      {"perfVP", false, false, true},
                      {"perfBP", false, true, false},
                      {"perfVP+perfBP", false, true, true}};
    constexpr size_t numVariants = std::size(substrates);

    // Each workload's trace is generated once and annotated once per
    // perfect-feature variant; both baselines run over every variant.
    std::vector<Variant> variants;
    for (const auto &sub : substrates) {
        Variant variant{sub.label, setup.annotation};
        variant.annotation.hierarchy.perfectInstFetch = sub.i;
        variant.annotation.branch.perfect = sub.bp;
        variant.annotation.value.perfect = sub.vp;
        variants.push_back(std::move(variant));
    }
    const auto traces = prepareAll(setup, opts, variants);
    const size_t numWorkloads = traces.size() / numVariants;

    Sweep sweep(setup);
    std::vector<Job<core::MlpResult>> cells[2];
    for (int b = 0; b < 2; ++b) {
        for (size_t t = 0; t < traces.size(); ++t) {
            core::MlpConfig cfg = bases[b].cfg;
            cfg.valuePrediction = substrates[t / numWorkloads].vp;
            cells[b].push_back(sweep.mlp(cfg, traces[t]));
        }
    }
    sweep.run();

    for (int b = 0; b < 2; ++b) {
        std::printf("-- baseline: %s --\n", bases[b].label);
        TextTable table({"workload", "base", "+perfI", "+perfVP",
                         "+perfBP", "+perfVP+perfBP", "max gain"});
        for (size_t w = 0; w < numWorkloads; ++w) {
            double mlp[numVariants];
            for (size_t v = 0; v < numVariants; ++v)
                mlp[v] = cells[b][v * numWorkloads + w].get().mlp();
            table.addRow(
                {traces[w].name(), TextTable::num(mlp[0]),
                 TextTable::num(mlp[1]), TextTable::num(mlp[2]),
                 TextTable::num(mlp[3]), TextTable::num(mlp[4]),
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
