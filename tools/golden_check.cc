/**
 * @file
 * Golden-result regression gate for the simulators.
 *
 * Runs a small fixed sweep — every commercial workload under issue
 * configs A..E plus the runahead, value-prediction and store-buffer
 * variants — and serialises every numeric field of each MlpResult
 * (epochs, access tallies, inhibitor taxonomy, accesses-per-epoch
 * histogram) into one canonical JSON document. The committed copy in
 * data/golden_results.json is the reference; the golden_results ctest
 * re-runs the sweep and fails on any drift, which is what lets the
 * engine internals be rewritten while proving results stay
 * bit-identical.
 *
 * Usage:
 *   golden_check --check FILE   # compare a fresh sweep against FILE
 *   golden_check --write FILE   # (re)generate FILE
 *   --suite cyclesim            # the cycle-accurate pipeline's sweep
 *                               # instead (data/golden_cyclesim.json)
 *   --suite epoch-edges         # the epoch engine's window-corner
 *                               # matrix (data/golden_epoch_edges.json)
 *
 * The cyclesim suite is the Table 3 cell set — every commercial
 * workload x windows 32/64/128 x issue configs A-C x off-chip
 * latencies 200/1000, plus one perfect-L2 cell — with all five
 * CycleSimResult fields per cell, so the timed pipeline's scheduler
 * can be rewritten under the same bit-identical gate.
 *
 * The epoch-edges suite pins the epoch engine at the corners of its
 * window structures, where fetch, dispatch and retirement boundaries
 * fall on every possible instruction: fetch buffers 1/7/32/300 x
 * (ROB, issue window) (1,1)/(16,16)/(256,16)/(16,256)/(2048,2048) x
 * issue configs A-E, each again with a 40-instruction epoch horizon,
 * plus runahead (default and 64-instruction distance), the finite
 * store buffer and value prediction at fetch buffers 1/32/300. Besides
 * every MlpResult field, each cell records the iteration count of the
 * phase loop the engine models, which the engine rebuilds from its
 * stamps (the core/epoch_engine/loop_iterations counter), so a change
 * to the engine must reproduce its step structure, not just its
 * results.
 *
 * Checkpoint/resume (the golden_resume ctest):
 *   --journal FILE      persist each completed cell to FILE and skip
 *                       cells FILE already has (a service::ResultCache
 *                       log, keyed like the daemon's cells)
 *   --kill-after N      simulate a crash: _Exit(42) after N cells have
 *                       been *computed* this run (replays don't count)
 *
 * A killed run resumed against the same journal produces a document
 * byte-identical to an uninterrupted run — replayed cells are the
 * exact MlpResult records the first run journalled.
 *
 * The sweep is deterministic end to end: workload generators use
 * their presets' seeds (workloads::presetSeed), which also key the
 * journal's cells, annotation substrates are replayed in
 * program order, and MLP (the only double) is a single IEEE division
 * of two integers, so the document compares exactly.
 */
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/mlpsim.hh"
#include "core/result_json.hh"
#include "core/trace_pipeline.hh"
#include "cyclesim/cycle_sim.hh"
#include "metrics/json.hh"
#include "metrics/registry.hh"
#include "service/result_cache.hh"
#include "service/wire.hh"
#include "util/logging.hh"
#include "util/options.hh"
#include "workloads/factory.hh"

using namespace mlpsim;
using metrics::JsonValue;

namespace {

constexpr uint64_t goldenInsts = 30'000;
constexpr uint64_t goldenWarmup = 5'000;

/** One simulated machine of the golden sweep. */
struct GoldenConfig
{
    const char *key; //!< stable name used in the JSON document
    core::MlpConfig config;
};

std::vector<GoldenConfig>
goldenConfigs()
{
    using core::IssueConfig;
    using core::MlpConfig;

    std::vector<GoldenConfig> configs;
    const char *names[] = {"64A", "64B", "64C", "64D", "64E"};
    const IssueConfig issues[] = {IssueConfig::A, IssueConfig::B,
                                  IssueConfig::C, IssueConfig::D,
                                  IssueConfig::E};
    for (unsigned i = 0; i < 5; ++i)
        configs.push_back({names[i], MlpConfig::sized(64, issues[i])});

    configs.push_back({"RA", MlpConfig::runahead()});

    MlpConfig vp = MlpConfig::defaultOoO();
    vp.valuePrediction = true;
    configs.push_back({"64C+vp", vp});

    MlpConfig sb = MlpConfig::defaultOoO();
    sb.finiteStoreBuffer = true;
    configs.push_back({"64C+sb", sb});

    for (GoldenConfig &gc : configs)
        gc.config.warmupInsts = goldenWarmup;
    return configs;
}

/** The golden trace of workload @p name: its preset seed, the golden
 *  budget, materialised. */
core::TraceSpec
goldenSpec(const std::string &name)
{
    core::TraceSpec spec;
    spec.workload = name;
    spec.seed = workloads::presetSeed(name);
    spec.totalInsts = goldenInsts;
    spec.annotation.warmupInsts = goldenWarmup;
    return spec;
}

/** The committed document: schema, golden budget and per-cell results. */
JsonValue
goldenDocument(const char *schema, JsonValue results)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", schema);
    JsonValue meta = JsonValue::object();
    meta.set("insts", goldenInsts);
    meta.set("warmup", goldenWarmup);
    doc.set("meta", std::move(meta));
    doc.set("results", std::move(results));
    return doc;
}

JsonValue
runGoldenSweep(service::ResultCache &journal, uint64_t kill_after)
{
    uint64_t computed = 0;
    JsonValue results = JsonValue::object();
    for (const std::string &name : workloads::commercialWorkloadNames()) {
        const core::TraceSpec spec = goldenSpec(name);
        const auto trace = core::PreparedTrace::make(spec).orFatal();
        for (const GoldenConfig &gc : goldenConfigs()) {
            const std::string cell_key = service::cellKey(spec, gc.config);
            core::MlpResult r;
            if (journal.lookup(cell_key, &r)) {
                // Completed by a previous (possibly killed) run;
                // replay the journalled result instead of recomputing.
                results.set(name + "/" + gc.key, resultToJson(r));
                continue;
            }
            r = core::runMlp(gc.config, trace.context());
            journal.record(cell_key, r).orFatal();
            results.set(name + "/" + gc.key, resultToJson(r));
            if (kill_after != 0 && ++computed >= kill_after) {
                // Simulated crash for the golden_resume ctest: the
                // journalled cells survive, nothing else does. _Exit
                // skips destructors on purpose — a real kill would too.
                std::fprintf(stderr,
                             "golden_check: simulated crash after %llu "
                             "computed cells\n",
                             static_cast<unsigned long long>(computed));
                std::_Exit(42);
            }
        }
    }

    return goldenDocument("mlpsim-golden-results-v1", std::move(results));
}

JsonValue
cycleSimResultToJson(const cyclesim::CycleSimResult &r)
{
    JsonValue out = JsonValue::object();
    out.set("cycles", r.cycles);
    out.set("instructions", r.instructions);
    out.set("offchip_accesses", r.offChipAccesses);
    out.set("mlp_cycles", r.mlpCycles);
    out.set("mlp_sum", r.mlpSum);
    return out;
}

JsonValue
runCycleSimSweep()
{
    JsonValue results = JsonValue::object();
    for (const std::string &name : workloads::commercialWorkloadNames()) {
        const auto trace =
            core::PreparedTrace::make(goldenSpec(name)).orFatal();
        auto cell = [&](const cyclesim::CycleSimConfig &cfg) {
            results.set(
                name + "/" + cfg.metricLabel(),
                cycleSimResultToJson(
                    cyclesim::CycleSim(cfg, trace.context()).run()));
        };
        for (unsigned window : {32u, 64u, 128u}) {
            for (auto ic : {core::IssueConfig::A, core::IssueConfig::B,
                            core::IssueConfig::C}) {
                for (unsigned lat : {200u, 1000u}) {
                    cyclesim::CycleSimConfig cfg;
                    cfg.issue = ic;
                    cfg.issueWindowSize = window;
                    cfg.robSize = window;
                    cfg.offChipLatency = lat;
                    cfg.warmupInsts = goldenWarmup;
                    cell(cfg);
                }
            }
        }
        if (name == workloads::commercialWorkloadNames().front()) {
            cyclesim::CycleSimConfig cfg;
            cfg.perfectL2 = true;
            cfg.warmupInsts = goldenWarmup;
            cell(cfg);
        }
    }

    return goldenDocument("mlpsim-golden-cyclesim-v1", std::move(results));
}

/** One epoch-edges cell: every MlpResult field plus the engine's
 *  main-loop iteration count, collected in a private registry. */
JsonValue
epochEdgeCell(const core::MlpConfig &config,
              const core::WorkloadContext &context)
{
    metrics::MetricRegistry registry;
    core::MlpResult r;
    {
        metrics::CollectorScope scope(&registry);
        r = core::runMlp(config, context);
    }
    const auto snapshot = registry.snapshot();
    const auto it = snapshot.find("core/epoch_engine/loop_iterations");
    if (it == snapshot.end())
        fatal("epoch-edges cell recorded no loop_iterations counter");
    JsonValue out = resultToJson(r);
    out.set("loop_iterations", it->second.counter);
    return out;
}

JsonValue
runEpochEdgesSweep()
{
    using core::IssueConfig;
    using core::MlpConfig;

    // loop_iterations is only recorded while collection is on.
    metrics::setEnabled(true);

    const unsigned fetch_buffers[] = {1, 7, 32, 300};
    const std::pair<unsigned, unsigned> windows[] = {
        {1, 1}, {16, 16}, {256, 16}, {16, 256}, {2048, 2048}};
    const IssueConfig issues[] = {IssueConfig::A, IssueConfig::B,
                                  IssueConfig::C, IssueConfig::D,
                                  IssueConfig::E};

    JsonValue results = JsonValue::object();
    for (const std::string &name : workloads::commercialWorkloadNames()) {
        const auto trace =
            core::PreparedTrace::make(goldenSpec(name)).orFatal();
        auto cell = [&](const std::string &key, MlpConfig cfg) {
            cfg.warmupInsts = goldenWarmup;
            results.set(name + "/" + key,
                        epochEdgeCell(cfg, trace.context()));
        };
        for (unsigned fb : fetch_buffers) {
            const std::string fb_key = "fb" + std::to_string(fb);
            for (const auto &[rob, iw] : windows) {
                for (IssueConfig ic : issues) {
                    MlpConfig cfg;
                    cfg.issue = ic;
                    cfg.fetchBufferSize = fb;
                    cfg.robSize = rob;
                    cfg.issueWindowSize = iw;
                    const std::string key =
                        fb_key + "/rob" + std::to_string(rob) + "-iw" +
                        std::to_string(iw) + "/" +
                        core::issueConfigName(ic);
                    cell(key, cfg);
                    cfg.epochInstHorizon = 40;
                    cell(key + "/h40", cfg);
                }
            }
        }
        for (unsigned fb : {1u, 32u, 300u}) {
            const std::string fb_key = "fb" + std::to_string(fb);
            MlpConfig ra = MlpConfig::runahead();
            ra.fetchBufferSize = fb;
            cell(fb_key + "/RA", ra);
            ra.maxRunaheadDistance = 64;
            cell(fb_key + "/RA-d64", ra);

            MlpConfig sb = MlpConfig::defaultOoO();
            sb.fetchBufferSize = fb;
            sb.finiteStoreBuffer = true;
            cell(fb_key + "/64C+sb", sb);

            MlpConfig vp = MlpConfig::defaultOoO();
            vp.fetchBufferSize = fb;
            vp.valuePrediction = true;
            cell(fb_key + "/64C+vp", vp);
        }
    }

    return goldenDocument("mlpsim-golden-epoch-edges-v1",
                          std::move(results));
}

/** First path at which two documents differ, for an actionable diff. */
std::string
firstDifference(const JsonValue &a, const JsonValue &b,
                const std::string &path)
{
    if (a.isObject() && b.isObject()) {
        for (const auto &[key, value] : a.members()) {
            const JsonValue *other = b.find(key);
            if (!other)
                return path + "/" + key + " (missing from golden file)";
            if (value != *other) {
                const std::string hit =
                    firstDifference(value, *other, path + "/" + key);
                if (!hit.empty())
                    return hit;
            }
        }
        for (const auto &[key, value] : b.members()) {
            if (!a.find(key))
                return path + "/" + key + " (missing from this run)";
        }
        return path;
    }
    return path + ": got " + a.dump(0) + ", golden " + b.dump(0);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    opts.rejectUnknown({"check", "write", "suite", "journal", "kill-after"});

    const std::string check = opts.getString("check", "");
    const std::string write = opts.getString("write", "");
    if (check.empty() == write.empty())
        fatal("exactly one of --check FILE / --write FILE is required");

    const std::string suite = opts.getString("suite", "epoch");
    if (suite != "epoch" && suite != "cyclesim" && suite != "epoch-edges")
        fatal("--suite must be epoch, cyclesim or epoch-edges, got '",
              suite, "'");

    const std::string journal_path = opts.getString("journal", "");
    const uint64_t kill_after = opts.getU64("kill-after", 0);
    if (kill_after != 0 && journal_path.empty())
        fatal("--kill-after requires --journal (nothing would survive)");
    if (suite != "epoch" && !journal_path.empty())
        fatal("--journal applies to the epoch suite only");

    // Without --journal the cache is memory-only: every lookup misses.
    service::ResultCache journal =
        service::ResultCache::open(journal_path).orFatal();
    if (journal.size() != 0) {
        std::fprintf(stderr,
                     "golden_check: resuming, %zu cells on record%s\n",
                     journal.size(),
                     journal.salvaged() ? " (salvaged corrupt tail)" : "");
    }

    const JsonValue fresh =
        suite == "cyclesim"      ? runCycleSimSweep()
        : suite == "epoch-edges" ? runEpochEdgesSweep()
                                 : runGoldenSweep(journal, kill_after);

    if (!write.empty()) {
        metrics::writeJsonFile(write, fresh).orFatal();
        std::printf("%s: written (%zu cells)\n", write.c_str(),
                    fresh.find("results")->members().size());
        return 0;
    }

    const JsonValue golden = metrics::readJsonFile(check).orFatal();
    if (fresh != golden) {
        fatal(check, ": results drifted from golden at ",
              firstDifference(fresh, golden, ""),
              "; if the change is intended, regenerate with "
              "golden_check --write ", check,
              suite == "epoch" ? "" : " --suite " + suite);
    }
    std::printf("%s: matches (%zu cells, %llu insts each)\n",
                check.c_str(),
                fresh.find("results")->members().size(),
                static_cast<unsigned long long>(goldenInsts));
    return 0;
}
