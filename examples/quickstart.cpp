/**
 * @file
 * Quickstart: measure the MLP of a workload on a few machines.
 *
 * The five steps every mlpsim program follows:
 *   1. generate an instruction trace;
 *   2. annotate it once (cache misses, branch mispredictions,
 *      value-prediction outcomes) — core::PreparedTrace::make does
 *      both;
 *   3. describe a machine with core::MlpConfig;
 *   4. run the epoch model;
 *   5. read MLP / epoch statistics out of core::MlpResult.
 *
 * Run: ./quickstart [--insts N]
 */
#include <cstdio>

#include "core/mlpsim.hh"
#include "core/trace_pipeline.hh"
#include "util/options.hh"
#include "workloads/factory.hh"

using namespace mlpsim;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    opts.rejectUnknown({"insts"});
    const uint64_t insts = opts.scaledInsts("insts", 2'000'000);
    const uint64_t warmup = insts / 4;

    // 1. A synthetic OLTP trace at its preset seed (see workloads/
    //    for the other generators).
    core::TraceSpec spec;
    spec.workload = "database";
    spec.seed = workloads::presetSeed(spec.workload);
    spec.totalInsts = insts;

    // 2. Annotate: one program-order pass through the default memory
    //    hierarchy (32KB L1s, 2MB L2), gshare+BTB+RAS front end and
    //    the missing-load value predictor.
    spec.annotation.warmupInsts = warmup;
    const auto trace = core::PreparedTrace::make(spec).orFatal();

    std::printf("trace: %zu instructions (%llu warm-up)\n",
                trace.buffer()->size(), (unsigned long long)warmup);
    std::printf("off-chip accesses per 100 instructions: %.2f\n\n",
                trace.annotated().misses().missRatePer100());

    // 3-5. A few machines from the paper.
    struct
    {
        const char *what;
        core::MlpConfig cfg;
    } machines[] = {
        {"in-order stall-on-use",
         [] {
             core::MlpConfig c;
             c.mode = core::CoreMode::InOrderStallOnUse;
             return c;
         }()},
        {"out-of-order 64C (paper default)", core::MlpConfig::defaultOoO()},
        {"out-of-order 256E", core::MlpConfig::sized(
                                  256, core::IssueConfig::E)},
        {"runahead execution", core::MlpConfig::runahead()},
    };

    for (auto &m : machines) {
        m.cfg.warmupInsts = warmup;
        const core::MlpResult result =
            core::runMlp(m.cfg, trace.context());
        std::printf("%-36s MLP = %.2f  (%llu accesses / %llu epochs)\n",
                    m.what, result.mlp(),
                    (unsigned long long)result.usefulAccesses,
                    (unsigned long long)result.epochs);
    }
    return 0;
}
