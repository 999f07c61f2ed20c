/**
 * @file
 * Quickstart: measure the MLP of a workload on a few machines.
 *
 * The five steps every mlpsim program follows:
 *   1. build (or load) an instruction trace;
 *   2. annotate it once (cache misses, branch mispredictions,
 *      value-prediction outcomes);
 *   3. describe a machine with core::MlpConfig;
 *   4. run the epoch model;
 *   5. read MLP / epoch statistics out of core::MlpResult.
 *
 * Run: ./quickstart [--insts N]
 */
#include <cstdio>

#include "core/mlpsim.hh"
#include "util/options.hh"
#include "workloads/database.hh"

using namespace mlpsim;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    opts.rejectUnknown({"insts"});
    const uint64_t insts = opts.scaledInsts("insts", 2'000'000);
    const uint64_t warmup = insts / 4;

    // 1. A synthetic OLTP trace (see workloads/ for the other
    //    generators, or trace::readTrace for traces on disk).
    workloads::DatabaseWorkload database;
    trace::TraceBuffer buffer("database");
    buffer.fill(database, insts);

    // 2. Annotate: one program-order pass through the default memory
    //    hierarchy (32KB L1s, 2MB L2), gshare+BTB+RAS front end and
    //    the missing-load value predictor.
    core::AnnotationOptions annotation;
    annotation.warmupInsts = warmup;
    const auto annotated =
        core::AnnotatedTrace::make(buffer, annotation).orFatal();

    std::printf("trace: %zu instructions (%llu warm-up)\n",
                buffer.size(), (unsigned long long)warmup);
    std::printf("off-chip accesses per 100 instructions: %.2f\n\n",
                annotated.misses().missRatePer100());

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
            core::runMlp(m.cfg, annotated.context());
        std::printf("%-36s MLP = %.2f  (%llu accesses / %llu epochs)\n",
                    m.what, result.mlp(),
                    (unsigned long long)result.usefulAccesses,
                    (unsigned long long)result.epochs);
    }
    return 0;
}
