/**
 * @file
 * Runahead design-space exploration: how far ahead is it worth running?
 * Sweeps the maximum runahead distance across all three commercial
 * workloads and compares against the conventional baseline and the
 * idealised infinite-window machine, with and without missing-load
 * value prediction.
 *
 * Run: ./runahead_explorer [--insts N]
 */
#include <cstdio>

#include "core/mlpsim.hh"
#include "util/options.hh"
#include "util/table.hh"
#include "workloads/factory.hh"

using namespace mlpsim;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    opts.rejectUnknown({"insts"});
    const uint64_t insts = opts.scaledInsts("insts", 1'500'000);
    const uint64_t warmup = insts / 4;

    TextTable table({"workload", "64D", "RAE-128", "RAE-512", "RAE-2048",
                     "RAE-2048+VP", "INF"});

    for (const auto &name : workloads::commercialWorkloadNames()) {
        auto generator = workloads::makeWorkload(name);
        trace::TraceBuffer buffer(name);
        buffer.fill(*generator, insts);
        core::AnnotationOptions annotation;
        annotation.warmupInsts = warmup;
        const auto annotated =
            core::AnnotatedTrace::make(buffer, annotation).orFatal();

        auto mlp = [&](core::MlpConfig cfg) {
            cfg.warmupInsts = warmup;
            return core::runMlp(cfg, annotated.context()).mlp();
        };

        std::vector<std::string> row{name};
        row.push_back(TextTable::num(
            mlp(core::MlpConfig::sized(64, core::IssueConfig::D))));
        for (unsigned distance : {128u, 512u, 2048u}) {
            core::MlpConfig rae = core::MlpConfig::runahead();
            rae.maxRunaheadDistance = distance;
            row.push_back(TextTable::num(mlp(rae)));
        }
        core::MlpConfig rae_vp = core::MlpConfig::runahead();
        rae_vp.valuePrediction = true;
        row.push_back(TextTable::num(mlp(rae_vp)));
        row.push_back(TextTable::num(mlp(core::MlpConfig::infinite())));
        table.addRow(std::move(row));
    }

    std::printf("Runahead distance exploration "
                "(%llu measured instructions per workload)\n\n",
                (unsigned long long)(insts - warmup));
    std::printf("%s", table.render().c_str());
    std::printf("\nMost of the benefit arrives by a few hundred "
                "instructions of runahead;\nRAE-2048 matches the "
                "idealised infinite-window machine (the paper's\n"
                "Figure 8 observation).\n");
    return 0;
}
