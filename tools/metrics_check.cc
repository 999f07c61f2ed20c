/**
 * @file
 * Validator for the JSON files the benches and tools emit.
 *
 * Used by the bench_smoke ctest suite: after a tiny sweep writes its
 * --metrics-out / --trace-events files, this tool checks that the
 * document parses with the strict metrics/json.hh reader, carries the
 * expected schema and required keys, and survives a full
 * dump-parse-compare round trip (writer and reader agree exactly).
 *
 * Usage:
 *   metrics_check --in FILE
 *                 [--kind snapshot|trace|bench-perf|sweep-report
 *                        |sweep-request|sweep-response]
 *                 [--require path1,path2,...]
 *   metrics_check --dump-paper-targets   # print the embedded targets
 *
 * --require names metric paths (snapshot), event names (trace),
 * result keys (bench-perf) or failed-job labels (sweep-report) that
 * must be present. For bench-perf a "bench:NAME" token instead
 * requires a result row whose "bench" field is NAME, and a
 * "max-rss-kb:NAME:KB" token additionally asserts that every result
 * row for bench NAME reports peak_rss_kb at or below KB — the CI
 * ceiling that keeps the streaming pipeline's footprint honest.
 *
 * The mlpsimd wire kinds run the *daemon's own* validators
 * (service/wire.hh), so a request file that passes here is exactly a
 * request the daemon would accept. Their --require tokens:
 *   sweep-request:  "workload:NAME", "config:NAME" (a config with
 *                   that display name), or a plain top-level key;
 *   sweep-response: "status:ok" / "status:error", "config:NAME" (a
 *                   result row for that config), or a plain key every
 *                   result row must carry.
 *
 * Exit status is 0 only if every check passes; failures are fatal()
 * with a description.
 */
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "metrics/export.hh"
#include "metrics/json.hh"
#include "service/wire.hh"
#include "util/logging.hh"
#include "util/options.hh"
#include "workloads/paper_targets.hh"

using namespace mlpsim;
using metrics::JsonValue;

namespace {

std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> out;
    size_t begin = 0;
    while (begin <= list.size()) {
        const size_t end = list.find(',', begin);
        if (end == std::string::npos) {
            if (begin < list.size())
                out.push_back(list.substr(begin));
            break;
        }
        if (end > begin)
            out.push_back(list.substr(begin, end - begin));
        begin = end + 1;
    }
    return out;
}

const JsonValue &
requireMember(const JsonValue &doc, const std::string &key,
              const char *what)
{
    const JsonValue *member = doc.find(key);
    if (!member)
        fatal(what, " lacks required member \"", key, "\"");
    return *member;
}

void
checkSnapshot(const JsonValue &doc,
              const std::vector<std::string> &required)
{
    const JsonValue &schema = requireMember(doc, "schema", "snapshot");
    if (!schema.isString() || schema.string() != metrics::snapshotSchema)
        fatal("snapshot schema is not ", metrics::snapshotSchema);
    if (!requireMember(doc, "meta", "snapshot").isObject())
        fatal("snapshot \"meta\" is not an object");
    const JsonValue &paths = requireMember(doc, "metrics", "snapshot");
    if (!paths.isObject())
        fatal("snapshot \"metrics\" is not an object");
    for (const auto &[path, metric] : paths.members()) {
        if (!metric.isObject() || !metric.find("kind"))
            fatal("metric '", path, "' has no \"kind\"");
    }
    for (const auto &path : required) {
        if (!paths.find(path))
            fatal("snapshot lacks required metric '", path, "'");
    }
}

void
checkTrace(const JsonValue &doc, const std::vector<std::string> &required)
{
    const JsonValue &events = requireMember(doc, "traceEvents", "trace");
    if (!events.isArray())
        fatal("\"traceEvents\" is not an array");
    for (const JsonValue &event : events.items()) {
        for (const char *key : {"name", "ph", "ts", "dur", "tid"}) {
            if (!event.find(key))
                fatal("trace event lacks \"", key, "\"");
        }
    }
    for (const auto &name : required) {
        bool found = false;
        for (const JsonValue &event : events.items())
            found = found || (event.find("name") &&
                              event.find("name")->isString() &&
                              event.find("name")->string() == name);
        if (!found)
            fatal("trace has no event named '", name, "'");
    }
}

void
checkBenchPerf(const JsonValue &doc,
               const std::vector<std::string> &required)
{
    const JsonValue &schema = requireMember(doc, "schema", "bench-perf");
    if (!schema.isString() || schema.string() != metrics::benchPerfSchema)
        fatal("bench-perf schema is not ", metrics::benchPerfSchema);
    const JsonValue &results = requireMember(doc, "results", "bench-perf");
    if (!results.isArray() || results.size() == 0)
        fatal("bench-perf \"results\" is not a non-empty array");
    // A plain --require token is a key every result row must carry; a
    // "bench:NAME" token instead asserts that at least one row reports
    // benchmark NAME (e.g. bench:CycleSim for the cyclesim-only pass);
    // a "max-rss-kb:NAME:KB" token caps peak_rss_kb on NAME's rows; a
    // "min-ratio:NUM/DEN:R" token asserts that NUM's best instr_per_s
    // is at least R times DEN's best — the CI floor that keeps the
    // streamed fan-out within striking distance of materialised replay.
    std::vector<std::string> keys = {"bench",  "workload",    "config",
                                     "wall_s", "instr_per_s", "peak_rss_kb"};
    std::vector<std::string> benches;
    std::vector<std::pair<std::string, uint64_t>> rss_ceilings;
    struct RatioFloor
    {
        std::string numerator;
        std::string denominator;
        double floor;
    };
    std::vector<RatioFloor> ratio_floors;
    for (const auto &token : required) {
        if (token.rfind("bench:", 0) == 0) {
            benches.push_back(token.substr(6));
        } else if (token.rfind("min-ratio:", 0) == 0) {
            const std::string spec = token.substr(10);
            const size_t slash = spec.find('/');
            const size_t colon = spec.find(':', slash + 1);
            char *end = nullptr;
            const double floor =
                colon == std::string::npos
                    ? 0.0
                    : std::strtod(spec.c_str() + colon + 1, &end);
            if (slash == std::string::npos ||
                colon == std::string::npos || slash == 0 ||
                colon <= slash + 1 || floor <= 0.0 ||
                end != spec.c_str() + spec.size()) {
                fatal("malformed --require token '", token,
                      "' (want min-ratio:NUM_BENCH/DEN_BENCH:RATIO)");
            }
            ratio_floors.push_back({spec.substr(0, slash),
                                    spec.substr(slash + 1,
                                                colon - slash - 1),
                                    floor});
        } else if (token.rfind("max-rss-kb:", 0) == 0) {
            const std::string spec = token.substr(11);
            const size_t colon = spec.find(':');
            char *end = nullptr;
            const uint64_t kb =
                colon == std::string::npos
                    ? 0
                    : std::strtoull(spec.c_str() + colon + 1, &end, 10);
            if (colon == std::string::npos || kb == 0 ||
                end != spec.c_str() + spec.size()) {
                fatal("malformed --require token '", token,
                      "' (want max-rss-kb:BENCH:KILOBYTES)");
            }
            rss_ceilings.emplace_back(spec.substr(0, colon), kb);
        } else {
            keys.push_back(token);
        }
    }
    for (const JsonValue &row : results.items()) {
        for (const auto &key : keys) {
            if (!row.find(key))
                fatal("bench-perf result lacks \"", key, "\"");
        }
    }
    for (const auto &bench : benches) {
        bool found = false;
        for (const JsonValue &row : results.items())
            found = found || (row.find("bench") &&
                              row.find("bench")->isString() &&
                              row.find("bench")->string() == bench);
        if (!found)
            fatal("bench-perf has no result row for bench '", bench, "'");
    }
    for (const auto &[bench, ceiling_kb] : rss_ceilings) {
        bool found = false;
        for (const JsonValue &row : results.items()) {
            if (!row.find("bench") || !row.find("bench")->isString() ||
                row.find("bench")->string() != bench) {
                continue;
            }
            found = true;
            const JsonValue *rss = row.find("peak_rss_kb");
            if (!rss || !rss->isUinteger()) {
                fatal("bench-perf row for '", bench,
                      "' has no non-negative integer peak_rss_kb");
            }
            if (rss->uinteger() > ceiling_kb) {
                fatal("bench-perf row for '", bench, "' peaked at ",
                      rss->uinteger(), " kB RSS, over the ", ceiling_kb,
                      " kB ceiling — the streaming path is "
                      "materialising something it should not");
            }
        }
        if (!found) {
            fatal("bench-perf has no result row for bench '", bench,
                  "' to apply the RSS ceiling to");
        }
    }
    for (const auto &ratio : ratio_floors) {
        // Best row per bench: the floor compares peak capability, so a
        // deliberately small config on one side cannot fail the gate.
        const auto best = [&results](const std::string &bench) {
            double out = -1.0;
            for (const JsonValue &row : results.items()) {
                if (!row.find("bench") || !row.find("bench")->isString() ||
                    row.find("bench")->string() != bench) {
                    continue;
                }
                const JsonValue *rate = row.find("instr_per_s");
                if (!rate || !rate->isNumber()) {
                    fatal("bench-perf row for '", bench,
                          "' has a non-numeric instr_per_s");
                }
                if (rate->number() > out)
                    out = rate->number();
            }
            return out;
        };
        const double num = best(ratio.numerator);
        const double den = best(ratio.denominator);
        if (num < 0.0 || den < 0.0) {
            fatal("bench-perf lacks result rows for '",
                  num < 0.0 ? ratio.numerator : ratio.denominator,
                  "' to apply the throughput-ratio floor to");
        }
        if (num < ratio.floor * den) {
            fatal("bench-perf throughput ratio ", ratio.numerator, "/",
                  ratio.denominator, " = ", num / den, " is below the ",
                  ratio.floor, " floor (", num, " vs ", den,
                  " instr/s) — the streamed pipeline regressed "
                  "relative to materialised replay");
        }
    }
}

void
checkSweepReport(const JsonValue &doc,
                 const std::vector<std::string> &required)
{
    const JsonValue &schema = requireMember(doc, "schema", "sweep-report");
    if (!schema.isString() ||
        schema.string() != metrics::sweepReportSchema) {
        fatal("sweep-report schema is not ", metrics::sweepReportSchema);
    }
    if (!requireMember(doc, "meta", "sweep-report").isObject())
        fatal("sweep-report \"meta\" is not an object");

    uint64_t totals[4]; // jobs, succeeded, failed, retries
    const char *names[4] = {"jobs", "succeeded", "failed", "retries"};
    for (unsigned i = 0; i < 4; ++i) {
        const JsonValue &count =
            requireMember(doc, names[i], "sweep-report");
        if (!count.isUinteger()) {
            fatal("sweep-report \"", names[i],
                  "\" is not a non-negative integer");
        }
        totals[i] = count.uinteger();
    }
    if (totals[1] + totals[2] != totals[0]) {
        fatal("sweep-report totals are inconsistent: succeeded (",
              totals[1], ") + failed (", totals[2], ") != jobs (",
              totals[0], ")");
    }

    const JsonValue &failures =
        requireMember(doc, "failures", "sweep-report");
    if (!failures.isArray())
        fatal("sweep-report \"failures\" is not an array");
    if (failures.size() != totals[2]) {
        fatal("sweep-report lists ", failures.size(),
              " failure entries but \"failed\" says ", totals[2]);
    }
    for (const JsonValue &entry : failures.items()) {
        for (const char *key : {"index", "label", "code", "class",
                                "message", "attempts", "wall_ms"}) {
            if (!entry.find(key))
                fatal("sweep-report failure entry lacks \"", key, "\"");
        }
        const std::string &klass = entry.find("class")->string();
        if (klass != "transient" && klass != "permanent" &&
            klass != "cancelled") {
            fatal("sweep-report failure class '", klass,
                  "' is not a known failure class");
        }
    }
    for (const auto &label : required) {
        bool found = false;
        for (const JsonValue &entry : failures.items())
            found = found || (entry.find("label") &&
                              entry.find("label")->isString() &&
                              entry.find("label")->string() == label);
        if (!found)
            fatal("sweep-report has no failure labelled '", label, "'");
    }
}

void
checkSweepRequest(const JsonValue &doc,
                  const std::vector<std::string> &required)
{
    // The daemon's own parser is the contract: a file that passes
    // here is a request mlpsimd would accept, byte for byte.
    auto parsed = service::parseSweepRequest(doc);
    if (!parsed.ok())
        fatal("sweep-request: ", parsed.status().toString());

    for (const auto &token : required) {
        if (token.rfind("workload:", 0) == 0) {
            const std::string want = token.substr(9);
            if (parsed->workload != want)
                fatal("sweep-request workload is '", parsed->workload,
                      "', not '", want, "'");
        } else if (token.rfind("config:", 0) == 0) {
            const std::string want = token.substr(7);
            bool found = false;
            for (const service::RequestConfig &rc : parsed->configs)
                found = found || rc.name == want;
            if (!found)
                fatal("sweep-request has no config named '", want, "'");
        } else if (!doc.find(token)) {
            fatal("sweep-request lacks required member \"", token,
                  "\"");
        }
    }
}

void
checkSweepResponse(const JsonValue &doc,
                   const std::vector<std::string> &required)
{
    const Status valid = service::validateSweepResponse(doc);
    if (!valid.ok())
        fatal("sweep-response: ", valid.toString());

    const std::string &status = doc.find("status")->string();
    const JsonValue *results = doc.find("results");
    for (const auto &token : required) {
        if (token.rfind("status:", 0) == 0) {
            const std::string want = token.substr(7);
            if (status != want)
                fatal("sweep-response status is '", status, "', not '",
                      want, "'");
        } else if (token.rfind("config:", 0) == 0) {
            const std::string want = token.substr(7);
            bool found = false;
            if (results) {
                for (const JsonValue &row : results->items())
                    found = found ||
                            (row.find("config")->string() == want);
            }
            if (!found)
                fatal("sweep-response has no result row for config '",
                      want, "'");
        } else {
            if (!results)
                fatal("sweep-response is an error response; cannot "
                      "require result key \"", token, "\"");
            for (const JsonValue &row : results->items()) {
                if (!row.find(token))
                    fatal("sweep-response result row lacks \"", token,
                          "\"");
            }
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    opts.rejectUnknown({"in", "kind", "require", "dump-paper-targets",
                        "check-paper-targets"});

    if (opts.has("dump-paper-targets")) {
        std::fputs(workloads::paperTargetsJsonText().c_str(), stdout);
        return 0;
    }

    if (opts.has("check-paper-targets")) {
        const std::string targets = opts.getString("check-paper-targets", "");
        const JsonValue committed = metrics::readJsonFile(targets).orFatal();
        if (committed != workloads::paperTargetsSnapshot()) {
            fatal(targets, " differs from the embedded paper targets; "
                  "regenerate it with metrics_check --dump-paper-targets");
        }
        std::printf("%s: matches the embedded paper targets\n",
                    targets.c_str());
        return 0;
    }

    const std::string path = opts.getString("in", "");
    if (path.empty())
        fatal("--in FILE is required (or --dump-paper-targets)");
    const std::string kind = opts.getString("kind", "snapshot");
    const auto required = splitCommas(opts.getString("require", ""));

    const JsonValue doc = metrics::readJsonFile(path).orFatal();

    // Writer/reader agreement: serialising the parsed document and
    // parsing it again must reproduce the document exactly.
    const JsonValue reparsed = JsonValue::parse(doc.dump(2)).orFatal();
    if (reparsed != doc)
        fatal(path, ": dump/parse round trip changed the document");

    if (kind == "snapshot")
        checkSnapshot(doc, required);
    else if (kind == "trace")
        checkTrace(doc, required);
    else if (kind == "bench-perf")
        checkBenchPerf(doc, required);
    else if (kind == "sweep-report")
        checkSweepReport(doc, required);
    else if (kind == "sweep-request")
        checkSweepRequest(doc, required);
    else if (kind == "sweep-response")
        checkSweepResponse(doc, required);
    else
        fatal("unknown --kind '", kind,
              "' (expected snapshot|trace|bench-perf|sweep-report|"
              "sweep-request|sweep-response)");

    std::printf("%s: ok (%s)\n", path.c_str(), kind.c_str());
    return 0;
}
