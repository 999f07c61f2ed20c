/**
 * @file
 * sweep_client — load generator and verification harness for mlpsimd.
 *
 * Builds a deterministic stream of sweep requests from a pool of
 * paper-style machine configurations, sends it to a daemon — either
 * one it spawns over a pipe pair (--spawn PATH) or an already-running
 * one on an AF_UNIX socket (--socket PATH) — with a configurable
 * fraction of *duplicate* requests, and verifies the service's cache
 * contract while measuring it:
 *
 *  - every duplicate's response must be byte-identical to the first
 *    response of the same request content (the client diffs the raw
 *    frames; any mismatch is fatal);
 *  - per-request latency (send → response) is split into hit requests
 *    (the daemon's "planned" event reported 0 computed cells) and
 *    cold requests, reporting p50/p99 and the hit/cold speedup;
 *  - the observed cache-hit ratio and total cell hits can be asserted
 *    with --min-hit-ratio / --min-cell-hits (CI gates).
 *
 * Requests are pipelined up to --window outstanding frames, so the
 * daemon plans later frames (and builds their traces) while earlier
 * requests' cells run, and responses are matched FIFO (the protocol
 * guarantees request-order responses).
 *
 * The summary can be written as a bench-perf row (--bench-out) in the
 * BENCH_perf.json schema: bench "Service", the six standard keys,
 * plus requests_per_s / hit_ratio / latency detail — the
 * `bench_service` row tracked alongside the microbenchmarks.
 *
 * Flags (defaults in brackets):
 *   --spawn PATH            daemon binary to fork/exec over pipes
 *   --socket PATH           connect to a serving daemon instead
 *   --requests N [32]       total requests to send
 *   --duplicate-ratio R [0.5]  fraction duplicating an earlier request
 *   --configs-per-request K [3]
 *   --workloads CSV [database,specjbb2000,specweb99]
 *   --warmup N [2000]       per-request warm-up instructions
 *   --insts N [20000]       per-request measured instructions
 *   --seed S [1]            duplicate-stream RNG seed
 *   --window W [8]          max outstanding requests
 *   --requests-out PREFIX   write request i to PREFIX<i>.json
 *   --responses-out PREFIX  write response i to PREFIX<i>.json
 *   --bench-out FILE        write the bench-perf summary document
 *   --min-hit-ratio X [0]   fail if cell hit ratio < X
 *   --min-cell-hits N [0]   fail if total cell hits < N
 *   --daemon-jobs N         forwarded to a spawned daemon (--jobs)
 *   --cache-dir DIR         forwarded to a spawned daemon (where it
 *                           keeps results.rec; traces are never
 *                           written)
 *   --daemon-kill-after N   forwarded (--kill-after, crash tests)
 *   --daemon-stream-chunk N forwarded (--stream-chunk, streamed
 *                           traces + shared-generation batches)
 */
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "metrics/export.hh"
#include "metrics/json.hh"
#include "service/framing.hh"
#include "service/wire.hh"
#include "util/logging.hh"
#include "util/options.hh"
#include "util/rng.hh"
#include "util/stats.hh"

using namespace mlpsim;
using metrics::JsonValue;

namespace {

/**
 * The config pool requests draw from: the paper's issue configs, the
 * runahead machine, the feature toggles, a wide window, and the
 * infinite machine — expressed in the wire form of service/wire.hh.
 */
struct PoolEntry
{
    const char *name;
    const char *json; //!< config object body, without the name
};

constexpr PoolEntry configPool[] = {
    {"64A", R"({"issue":"A"})"},
    {"64B", R"({"issue":"B"})"},
    {"64C", R"({})"},
    {"64D", R"({"issue":"D"})"},
    {"64E", R"({"issue":"E"})"},
    {"RA", R"({"mode":"runahead","issue":"D","rob":64})"},
    {"128C", R"({"window":128,"rob":128})"},
    {"64C+vp", R"({"vp":true})"},
    {"64C+sb", R"({"sb":true})"},
    {"INF", R"({"window":2048,"rob":2048,"issue":"E"})"},
};
constexpr size_t poolSize = sizeof configPool / sizeof configPool[0];

std::vector<std::string>
splitCsv(const std::string &text)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= text.size()) {
        const size_t comma = text.find(',', start);
        const size_t end = comma == std::string::npos ? text.size()
                                                      : comma;
        if (end > start)
            out.push_back(text.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

/** Build the canonical request document for template @p t. */
JsonValue
templateRequest(uint64_t t, const std::vector<std::string> &workloads,
                uint64_t configs_per_request, uint64_t warmup,
                uint64_t insts)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", service::sweepRequestSchema);
    doc.set("id", "t" + std::to_string(t));
    doc.set("workload", workloads[t % workloads.size()]);
    doc.set("warmup", warmup);
    doc.set("insts", insts);
    JsonValue configs = JsonValue::array();
    for (uint64_t j = 0; j < configs_per_request; ++j) {
        const PoolEntry &entry = configPool[(t + j) % poolSize];
        JsonValue config =
            JsonValue::parse(entry.json).orFatal();
        JsonValue named = JsonValue::object();
        named.set("name", entry.name);
        for (const auto &[key, value] : config.members())
            named.set(key, value);
        configs.push(std::move(named));
    }
    doc.set("configs", std::move(configs));
    return doc;
}

/** fork/exec @p daemon with a pipe pair; returns the child's pid. */
pid_t
spawnDaemon(const std::string &daemon,
            const std::vector<std::string> &extra_flags, int *in_fd,
            int *out_fd)
{
    int to_daemon[2], from_daemon[2];
    if (::pipe(to_daemon) != 0 || ::pipe(from_daemon) != 0)
        fatal("pipe: ", std::strerror(errno));

    const pid_t pid = ::fork();
    if (pid < 0)
        fatal("fork: ", std::strerror(errno));
    if (pid == 0) {
        ::dup2(to_daemon[0], 0);
        ::dup2(from_daemon[1], 1);
        ::close(to_daemon[0]);
        ::close(to_daemon[1]);
        ::close(from_daemon[0]);
        ::close(from_daemon[1]);
        std::vector<char *> argv;
        argv.push_back(const_cast<char *>(daemon.c_str()));
        for (const std::string &flag : extra_flags)
            argv.push_back(const_cast<char *>(flag.c_str()));
        argv.push_back(nullptr);
        ::execv(daemon.c_str(), argv.data());
        std::fprintf(stderr, "sweep_client: exec %s: %s\n",
                     daemon.c_str(), std::strerror(errno));
        std::_Exit(127);
    }
    ::close(to_daemon[0]);
    ::close(from_daemon[1]);
    *in_fd = from_daemon[0]; // daemon's stdout
    *out_fd = to_daemon[1];  // daemon's stdin
    return pid;
}

int
connectSocket(const std::string &path)
{
    sockaddr_un addr = {};
    if (path.size() >= sizeof addr.sun_path)
        fatal("socket path '", path, "' is too long for AF_UNIX");
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        fatal("socket: ", std::strerror(errno));
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr) != 0)
        fatal("connect '", path, "': ", std::strerror(errno));
    return fd;
}

double
millisSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    // A daemon that dies mid-conversation (or a --spawn path that
    // fails to exec) must surface as a stream error, not kill the
    // client with SIGPIPE while it is still queueing requests.
    std::signal(SIGPIPE, SIG_IGN);

    Options opts(argc, argv);
    opts.rejectUnknown(
        {"spawn", "socket", "requests", "duplicate-ratio",
         "configs-per-request", "workloads", "warmup", "insts", "seed",
         "window", "requests-out", "responses-out", "bench-out",
         "min-hit-ratio", "min-cell-hits", "daemon-jobs", "cache-dir",
         "daemon-kill-after", "daemon-stream-chunk"});

    const std::string spawn = opts.getString("spawn", "");
    const std::string socket_path = opts.getString("socket", "");
    if (spawn.empty() == socket_path.empty())
        fatal("exactly one of --spawn PATH / --socket PATH is "
              "required");

    const uint64_t requests = opts.getU64("requests", 32);
    const double duplicate_ratio =
        opts.getDouble("duplicate-ratio", 0.5);
    const uint64_t configs_per_request =
        opts.getU64("configs-per-request", 3);
    const std::vector<std::string> workloads = splitCsv(
        opts.getString("workloads", "database,specjbb2000,specweb99"));
    const uint64_t warmup = opts.getU64("warmup", 2000);
    const uint64_t insts = opts.scaledInsts("insts", 20'000);
    const uint64_t seed = opts.getU64("seed", 1);
    const uint64_t window = opts.getU64("window", 8);
    const std::string requests_out = opts.getString("requests-out", "");
    const std::string responses_out =
        opts.getString("responses-out", "");
    const std::string bench_out = opts.getString("bench-out", "");
    const double min_hit_ratio = opts.getDouble("min-hit-ratio", 0.0);
    const uint64_t min_cell_hits = opts.getU64("min-cell-hits", 0);
    if (requests == 0 || configs_per_request == 0 || window == 0 ||
        workloads.empty() || duplicate_ratio < 0.0 ||
        duplicate_ratio > 1.0)
        fatal("nonsensical load shape (zero counts or a duplicate "
              "ratio outside [0, 1])");

    // --- the deterministic request plan -----------------------------
    // Template u is a distinct request content; the stream repeats an
    // earlier template with probability --duplicate-ratio.
    Rng rng(splitMix64(seed));
    std::vector<uint64_t> plan; // request index -> template
    uint64_t unique = 0;
    for (uint64_t i = 0; i < requests; ++i) {
        const bool duplicate =
            unique != 0 &&
            static_cast<double>(rng()) /
                    static_cast<double>(~0ULL) <
                duplicate_ratio;
        plan.push_back(duplicate ? rng.below(unique) : unique++);
    }

    // --- connect ----------------------------------------------------
    int in_fd = -1, out_fd = -1;
    pid_t daemon_pid = -1;
    if (!spawn.empty()) {
        std::vector<std::string> flags;
        if (opts.has("cache-dir"))
            flags.push_back("--cache-dir=" +
                            opts.getString("cache-dir", ""));
        flags.push_back("--jobs=" +
                        std::to_string(opts.getU64("daemon-jobs", 0)));
        if (opts.has("daemon-kill-after")) {
            flags.push_back(
                "--kill-after=" +
                std::to_string(opts.getU64("daemon-kill-after", 0)));
        }
        if (opts.has("daemon-stream-chunk")) {
            flags.push_back(
                "--stream-chunk=" +
                std::to_string(opts.getU64("daemon-stream-chunk", 0)));
        }
        daemon_pid = spawnDaemon(spawn, flags, &in_fd, &out_fd);
    } else {
        in_fd = out_fd = connectSocket(socket_path);
    }
    service::FrameReader reader(in_fd);
    service::FrameWriter writer(out_fd);

    // --- pipelined exchange -----------------------------------------
    struct Outstanding
    {
        uint64_t tmpl = 0;
        std::chrono::steady_clock::time_point sent;
    };
    std::vector<Outstanding> inflight;             // FIFO
    std::vector<std::string> firstResponse(requests); // by template
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>>
        plannedByTemplate(requests); // (hits, computed) FIFO per tmpl
    Histogram latencyUs, hitUs, coldUs;
    uint64_t cellHits = 0, cellsComputed = 0, cellDone = 0;
    uint64_t duplicateMismatches = 0, errorResponses = 0;
    uint64_t sentCount = 0, receivedCount = 0;

    const auto wallStart = std::chrono::steady_clock::now();

    const auto receiveOne = [&]() {
        std::string frame;
        for (;;) {
            const bool got = reader.read(&frame).orFatal();
            if (!got)
                fatal("daemon stream ended with ",
                      receivedCount, " of ", requests,
                      " responses received");
            JsonValue doc = JsonValue::parse(frame).orFatal();
            const JsonValue *schema = doc.find("schema");
            if (!schema || !schema->isString())
                fatal("frame without a schema");
            if (schema->string() == service::sweepEventSchema) {
                const std::string event =
                    doc.find("event")->string();
                if (event == "planned") {
                    const auto count = [&doc](const char *name) {
                        const JsonValue *field = doc.find(name);
                        if (!field || !field->isUinteger())
                            fatal("planned event without a count '",
                                  name, "'");
                        return field->uinteger();
                    };
                    const uint64_t hits = count("hits");
                    const uint64_t computed = count("computed");
                    cellHits += hits;
                    cellsComputed += computed;
                    const std::string &id = doc.find("id")->string();
                    const uint64_t tmpl =
                        std::stoull(id.substr(1));
                    plannedByTemplate[tmpl].push_back(
                        {hits, computed});
                } else if (event == "cell-done") {
                    ++cellDone;
                }
                continue; // events interleave; keep reading
            }
            if (schema->string() != service::sweepResponseSchema)
                fatal("unexpected frame schema '", schema->string(),
                      "'");

            // Responses are FIFO: this frame answers the oldest
            // outstanding request.
            if (inflight.empty())
                fatal("response received with nothing outstanding");
            const Outstanding req = inflight.front();
            inflight.erase(inflight.begin());
            const double us = millisSince(req.sent) * 1000.0;
            latencyUs.add(static_cast<uint64_t>(us));

            service::validateSweepResponse(doc).orFatal();
            const std::string expect_id =
                "t" + std::to_string(req.tmpl);
            if (doc.find("id")->string() != expect_id)
                fatal("response id '", doc.find("id")->string(),
                      "' does not match expected '", expect_id, "'");
            if (doc.find("status")->string() == "error")
                ++errorResponses;

            // The cache contract: a duplicate's bytes must equal the
            // template's first response, exactly.
            if (firstResponse[req.tmpl].empty())
                firstResponse[req.tmpl] = frame;
            else if (firstResponse[req.tmpl] != frame)
                ++duplicateMismatches;

            // Hit/cold latency split via this request's planned event
            // (absent only if events were disabled).
            auto &planned = plannedByTemplate[req.tmpl];
            if (!planned.empty()) {
                const auto [hits, computed] = planned.front();
                planned.erase(planned.begin());
                (computed == 0 ? hitUs : coldUs)
                    .add(static_cast<uint64_t>(us));
            }

            if (!responses_out.empty()) {
                metrics::writeJsonFile(
                    responses_out + std::to_string(receivedCount) +
                        ".json",
                    doc)
                    .orFatal();
            }
            ++receivedCount;
            return;
        }
    };

    for (uint64_t i = 0; i < requests; ++i) {
        while (inflight.size() >= window)
            receiveOne();
        const uint64_t tmpl = plan[i];
        const JsonValue request = templateRequest(
            tmpl, workloads, configs_per_request, warmup, insts);
        if (!requests_out.empty()) {
            metrics::writeJsonFile(requests_out + std::to_string(i) +
                                       ".json",
                                   request)
                .orFatal();
        }
        inflight.push_back(
            {tmpl, std::chrono::steady_clock::now()});
        writer.write(request.dump(0)).orFatal();
        ++sentCount;
    }
    while (receivedCount < requests)
        receiveOne();

    const double wallSeconds = millisSince(wallStart) / 1000.0;

    // --- shut the daemon down cleanly -------------------------------
    JsonValue shutdown = JsonValue::object();
    shutdown.set("schema", service::sweepControlSchema);
    shutdown.set("command", "shutdown");
    writer.write(shutdown.dump(0)).orFatal();
    if (!spawn.empty()) {
        ::close(out_fd);
        std::string tail;
        while (reader.read(&tail).orFatal())
            ; // drain the bye event and EOF
        ::close(in_fd);
        int status = 0;
        ::waitpid(daemon_pid, &status, 0);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            fatal("daemon exited abnormally (status ", status, ")");
    } else {
        ::close(in_fd);
    }

    // --- verdicts ---------------------------------------------------
    if (duplicateMismatches != 0)
        fatal(duplicateMismatches,
              " duplicate responses were not byte-identical to "
              "their originals");
    if (errorResponses != 0)
        fatal(errorResponses, " requests answered with errors");

    const uint64_t cells = cellHits + cellsComputed;
    const double hit_ratio =
        cells == 0 ? 0.0
                   : static_cast<double>(cellHits) /
                         static_cast<double>(cells);
    const double p50_ms =
        static_cast<double>(latencyUs.quantile(0.5)) / 1000.0;
    const double p99_ms =
        static_cast<double>(latencyUs.quantile(0.99)) / 1000.0;
    const double hit_ms =
        hitUs.samples() ? hitUs.mean() / 1000.0 : 0.0;
    const double cold_ms =
        coldUs.samples() ? coldUs.mean() / 1000.0 : 0.0;
    const double speedup =
        hit_ms > 0.0 && cold_ms > 0.0 ? cold_ms / hit_ms : 0.0;

    inform("sweep_client: ", sentCount, " requests in ", wallSeconds,
           " s (", static_cast<double>(sentCount) / wallSeconds,
           " req/s); cells: ", cellHits, " hits / ", cellsComputed,
           " computed (hit ratio ", hit_ratio, "); latency p50 ",
           p50_ms, " ms p99 ", p99_ms, " ms; hit ", hit_ms,
           " ms cold ", cold_ms, " ms (speedup ", speedup, "x); ",
           cellDone, " cell-done events");

    if (hit_ratio < min_hit_ratio)
        fatal("cell hit ratio ", hit_ratio, " below required ",
              min_hit_ratio);
    if (cellHits < min_cell_hits)
        fatal("cell hits ", cellHits, " below required ",
              min_cell_hits);

    if (!bench_out.empty()) {
        struct rusage usage = {};
        ::getrusage(RUSAGE_SELF, &usage);

        std::string workload_list;
        for (const std::string &name : workloads) {
            workload_list +=
                workload_list.empty() ? name : "," + name;
        }
        JsonValue row = JsonValue::object();
        row.set("bench", "Service");
        row.set("workload", workload_list);
        row.set("config",
                std::to_string(configs_per_request) + "cfg x" +
                    std::to_string(requests) + "req");
        row.set("wall_s", wallSeconds);
        row.set("instr_per_s",
                static_cast<double>(cells * insts) / wallSeconds);
        row.set("peak_rss_kb",
                static_cast<uint64_t>(usage.ru_maxrss));
        row.set("requests_per_s",
                static_cast<double>(sentCount) / wallSeconds);
        row.set("hit_ratio", hit_ratio);
        row.set("p50_ms", p50_ms);
        row.set("p99_ms", p99_ms);
        row.set("hit_ms", hit_ms);
        row.set("cold_ms", cold_ms);
        row.set("hit_speedup", speedup);

        JsonValue results = JsonValue::array();
        results.push(std::move(row));
        metrics::writeJsonFile(
            bench_out, metrics::makeBenchPerfDoc(std::move(results)))
            .orFatal();
        inform("sweep_client: bench summary written to ", bench_out);
    }
    return 0;
}
