/**
 * @file
 * Working with trace files: generate a workload once, save it in the
 * mlpsim binary trace format, reload it, verify the round-trip, and
 * analyse the reloaded copy. This is the integration point for feeding
 * externally collected traces into the simulator: write records in
 * the trace_io.hh format and everything downstream works unchanged.
 *
 * Run: ./trace_files [--path FILE] [--insts N]
 */
#include <cstdio>

#include "core/mlpsim.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stats.hh"
#include "util/options.hh"
#include "workloads/specweb.hh"

using namespace mlpsim;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    opts.rejectUnknown({"insts", "path"});
    const uint64_t insts = opts.scaledInsts("insts", 500'000);
    const std::string path =
        opts.getString("path", "/tmp/mlpsim_example.trace");

    // Generate and persist.
    workloads::SpecWebWorkload web;
    trace::TraceBuffer original("specweb99");
    original.fill(web, insts);
    trace::writeTrace(path, original).orFatal();
    std::printf("wrote %zu instructions to %s\n", original.size(),
                path.c_str());

    // Reload and verify.
    const trace::TraceBuffer reloaded = trace::readTrace(path).orFatal();
    if (reloaded.size() != original.size()) {
        std::fprintf(stderr, "round-trip size mismatch!\n");
        return 1;
    }
    for (size_t i = 0; i < original.size(); ++i) {
        if (original.at(i).pc != reloaded.at(i).pc ||
            original.at(i).effAddr != reloaded.at(i).effAddr) {
            std::fprintf(stderr, "round-trip mismatch at %zu\n", i);
            return 1;
        }
    }
    std::printf("round-trip verified (%zu instructions)\n\n",
                reloaded.size());

    // Analyse the reloaded trace like any other source.
    auto cursor = reloaded.cursor();
    const auto mix = trace::measureMix(cursor, reloaded.size());
    std::printf("mix: %.1f%% loads, %.1f%% stores, %.1f%% branches, "
                "%.2f%% prefetches\n",
                100 * mix.fracLoads(), 100 * mix.fracStores(),
                100 * mix.fracBranches(), 100 * mix.fracPrefetches());

    core::AnnotationOptions annotation;
    annotation.warmupInsts = reloaded.size() / 4;
    const auto annotated =
        core::AnnotatedTrace::make(reloaded, annotation).orFatal();
    core::MlpConfig cfg = core::MlpConfig::defaultOoO();
    cfg.warmupInsts = annotation.warmupInsts;
    const auto result = core::runMlp(cfg, annotated.context());
    std::printf("MLP on the default machine: %.2f\n", result.mlp());

    std::remove(path.c_str());
    return 0;
}
