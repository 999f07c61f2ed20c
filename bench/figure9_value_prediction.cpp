/**
 * @file
 * Figure 9 + Table 6: missing-load value prediction. A 16K-entry
 * last-value predictor queried/trained only on missing loads is added
 * to the three Figure 8 machines; the bench reports the predictor's
 * accuracy/coverage (Table 6) and the MLP gain of enabling it
 * (Figure 9). Paper: 4-9% gain for the database (largest on runahead),
 * negligible for jbb/web on the conventional machines, 2%/5% on
 * runahead — "arguably worthwhile only combined with RAE".
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
    printBanner("figure9_value_prediction",
                "Figure 9 + Table 6 (missing-load value prediction)",
                setup);

    TextTable t6({"workload", "correct", "wrong", "no-predict", "|",
                  "paper", "correct", "wrong", "no-predict"});
    TextTable t9({"workload", "machine", "MLP", "MLP+VP", "gain"});

    const char *paper6[3][3] = {{"42%", "7%", "51%"},
                                {"20%", "3%", "77%"},
                                {"25%", "5%", "70%"}};
    const auto wls = prepareAll(setup, opts);

    core::MlpConfig rob64 =
        core::MlpConfig::sized(64, core::IssueConfig::D);
    core::MlpConfig rob256 = rob64;
    rob256.robSize = 256;
    const struct
    {
        const char *label;
        core::MlpConfig cfg;
    } machines[] = {{"64D/rob64", rob64},
                    {"64D/rob256", rob256},
                    {"RAE", core::MlpConfig::runahead()}};

    Sweep sweep(setup);
    std::vector<Job<core::MlpResult>> cells;
    for (const auto &wl : wls) {
        for (const auto &m : machines) {
            core::MlpConfig with_vp = m.cfg;
            with_vp.valuePrediction = true;
            cells.push_back(sweep.mlp(m.cfg, wl));
            cells.push_back(sweep.mlp(with_vp, wl));
        }
    }
    sweep.run();

    int wi = 0;
    size_t cell = 0;
    for (const auto &wl : wls) {
        const auto &v = wl.annotated().values();
        t6.addRow({wl.name(), TextTable::num(100 * v.fracCorrect(), 0) + "%",
                   TextTable::num(100 * v.fracWrong(), 0) + "%",
                   TextTable::num(100 * v.fracNoPredict(), 0) + "%", "|",
                   "", paper6[wi][0], paper6[wi][1], paper6[wi][2]});
        ++wi;

        for (const auto &m : machines) {
            const double base = cells[cell++].get().mlp();
            const double vp = cells[cell++].get().mlp();
            t9.addRow({wl.name(), m.label, TextTable::num(base),
                       TextTable::num(vp),
                       TextTable::num(100.0 * (vp / base - 1.0), 1) +
                           "%"});
        }
    }
    std::printf("Table 6 — predictor statistics (of missing loads):\n%s",
                t6.render().c_str());
    std::printf("\nNote: the synthetic workloads have far fewer static "
                "load sites than the\npaper's binaries, so coverage is "
                "near-total and the paper's no-predict share\nshows up "
                "here as wrong predictions; the correct%% — which is "
                "what drives MLP —\nis calibrated to Table 6.\n");
    std::printf("\nFigure 9 — MLP gain from value prediction:\n%s",
                t9.render().c_str());
    std::printf("\nPaper: db 4-9%% (best on RAE); jbb/web ~0%% "
                "conventional, 2%%/5%% on RAE.\n");
    writeBenchOutputs(setup, "figure9_value_prediction");
    return 0;
}
