#include "daemon.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <unordered_map>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/mlpsim.hh"
#include "core/shared_stream.hh"
#include "metrics/registry.hh"
#include "service/framing.hh"
#include "service/wire.hh"
#include "util/logging.hh"

namespace mlpsim::service {

using metrics::JsonValue;

namespace {

std::string
resultsLogPath(const std::string &cache_dir)
{
    return cache_dir + "/results.rec";
}

} // namespace

Daemon::Daemon(DaemonConfig daemon_config)
    : config(daemon_config), runner(daemon_config.jobs),
      traces(daemon_config.traceCacheCapacity)
{
    // Live per-cell progress, from this daemon's own runner only.
    if (config.emitEvents) {
        runner.setJobEndCallback([this](const std::string &label) {
            emitFrame(makeCellDoneEvent(label));
        });
    }
}

Expected<std::unique_ptr<Daemon>>
Daemon::create(DaemonConfig daemon_config)
{
    if (!daemon_config.cacheDir.empty() &&
        ::mkdir(daemon_config.cacheDir.c_str(), 0777) != 0 &&
        errno != EEXIST) {
        return Status::ioError("cannot create cache directory '",
                               daemon_config.cacheDir,
                               "': ", std::strerror(errno));
    }

    // SweepRunner is neither movable nor copyable, so the daemon
    // lives behind a unique_ptr from birth.
    std::unique_ptr<Daemon> daemon(new Daemon(daemon_config));
    MLPSIM_ASSIGN_OR_RETURN(
        daemon->results,
        ResultCache::open(daemon_config.cacheDir.empty()
                              ? std::string()
                              : resultsLogPath(daemon_config.cacheDir)));
    return daemon;
}

void
Daemon::emitFrame(const JsonValue &event)
{
    std::lock_guard<std::mutex> lock(writerMutex);
    if (!activeWriter)
        return;
    const Status sent = activeWriter->write(event.dump(0));
    if (!sent.ok())
        warn("mlpsimd: dropping event frame: ", sent.toString());
}

void
Daemon::recordComputedCell(const std::string &cell_key,
                           const core::MlpResult &result)
{
    const Status recorded = results.record(cell_key, result);
    if (!recorded.ok()) {
        // Persistence is an optimisation; the response still carries
        // the computed result.
        warn("mlpsimd: result cache append failed: ",
             recorded.toString());
    }

    if (config.killAfter != 0 && ++recordedCells >= config.killAfter &&
        results.persistent()) {
        // Crash injection for the salvage tests: leave a *truncated*
        // frame at the cache tail (a length word promising more bytes
        // than follow), exactly what a mid-append kill produces, then
        // die without running destructors.
        if (std::FILE *f = std::fopen(
                resultsLogPath(config.cacheDir).c_str(), "ab")) {
            const unsigned char tail[9] = {0xE8, 0x03, 0, 0, // len 1000
                                           0xDE, 0xAD, 0xBE, 0xEF,
                                           0x7F};
            std::fwrite(tail, 1, sizeof tail, f);
            std::fflush(f);
        }
        std::fprintf(stderr,
                     "mlpsimd: simulated crash after %llu recorded "
                     "cells\n",
                     static_cast<unsigned long long>(recordedCells));
        std::_Exit(42);
    }
}

Status
Daemon::handleBatch(const std::vector<std::string> &frames,
                    FrameWriter &writer)
{
    /** What one planned cell resolves to. */
    struct PlannedCell
    {
        Job<core::MlpResult> job;  //!< valid() iff deferred this batch
        core::MlpResult cached;    //!< the result when hit
        bool hit = false;
    };
    /** Per-frame disposition, in frame order. */
    struct Outcome
    {
        std::optional<JsonValue> earlyResponse; //!< pre-built error
        std::optional<SweepRequest> request;
        std::vector<std::string> keys; //!< cell keys, config order
        uint64_t hits = 0;
        uint64_t computed = 0;
        bool control = false;
    };

    std::vector<Outcome> outcomes(frames.size());
    std::unordered_map<std::string, PlannedCell> plan;
    std::vector<std::string> defer_order;
    const ServiceStats before = counters;

    // Streamed mode: a batch's computed cells, grouped by prepared
    // trace, consume shared stream generations instead of each cell
    // regenerating the trace (see core::CellGrid). The grid outlives
    // runAll() below.
    core::CellGrid grid;

    // A failed pong write ends planning, but not before the cells
    // already deferred have run and been recorded: a job left queued
    // would run inside the next connection's batch.
    Status stream_error;

    for (size_t i = 0; i < frames.size() && stream_error.ok(); ++i) {
        Outcome &outcome = outcomes[i];

        auto doc = JsonValue::parse(frames[i]);
        if (!doc.ok()) {
            outcome.earlyResponse = makeErrorResponse(
                "", "",
                Status::invalidArgument("request is not valid JSON: ",
                                        doc.status().message()));
            continue;
        }

        const JsonValue *schema = doc->find("schema");
        if (schema && schema->isString() &&
            schema->string() == sweepControlSchema) {
            outcome.control = true;
            const JsonValue *cmd = doc->find("command");
            const std::string command =
                cmd && cmd->isString() ? cmd->string() : "";
            if (command == "shutdown") {
                shuttingDown = true;
            } else if (command == "ping") {
                stream_error = writer.write(makeEvent("pong").dump(0));
            } else {
                outcome.earlyResponse = makeErrorResponse(
                    "", "",
                    Status::invalidArgument(
                        "unknown control command '", command, "'"));
            }
            continue;
        }

        auto parsed = parseSweepRequest(*doc, config.maxInsts);
        if (!parsed.ok()) {
            // Salvage the id for correlation when it parsed at least
            // that far; the request itself is rejected, not the
            // connection and certainly not the process.
            std::string id;
            if (const JsonValue *id_field = doc->find("id");
                id_field && id_field->isString())
                id = id_field->string();
            outcome.earlyResponse =
                makeErrorResponse(id, "", parsed.status());
            continue;
        }
        outcome.request = std::move(*parsed);
        SweepRequest &request = *outcome.request;
        ++counters.requests;
        counters.cells += request.configs.size();

        std::shared_ptr<const core::PreparedTrace> prepared;
        Status trace_error;
        for (const RequestConfig &rc : request.configs) {
            std::string key = cellKey(request, rc.config);

            if (const auto it = plan.find(key); it != plan.end()) {
                // Cache hit or within-batch dedup onto an in-flight
                // job; either way this request computes nothing new.
                ++outcome.hits;
                outcome.keys.push_back(std::move(key));
                continue;
            }

            core::MlpResult cached;
            if (results.lookup(key, &cached)) {
                PlannedCell cell;
                cell.cached = cached;
                cell.hit = true;
                plan.emplace(key, std::move(cell));
                ++outcome.hits;
                outcome.keys.push_back(std::move(key));
                continue;
            }

            if (!prepared && trace_error.ok()) {
                core::TraceSpec spec;
                spec.workload = request.workload;
                spec.seed = request.seed;
                spec.totalInsts = request.warmup + request.insts;
                spec.streamChunk = config.streamChunk;
                spec.annotation.warmupInsts = request.warmup;
                auto trace = traces.get(spec);
                if (trace.ok())
                    prepared = *trace;
                else
                    trace_error = trace.status();
            }
            if (!trace_error.ok())
                break;

            JobLimits limits;
            limits.deadlineMillis = request.deadlineMillis;
            limits.maxAttempts = request.maxAttempts;
            runner.setJobLimits(limits);

            PlannedCell cell;
            const core::MlpConfig job_config = rc.config;
            const std::string workload = request.workload;
            // The body holds the trace, so a cache eviction cannot
            // free it under a queued cell.
            cell.job = grid.defer<core::MlpResult>(
                runner, *prepared, workload + "/" + rc.name,
                [prepared, job_config,
                 workload](const core::WorkloadContext &ctx) {
                    metrics::ScopedLabel wl(workload);
                    metrics::ScopedLabel cfg(job_config.metricLabel());
                    auto r = core::tryRunMlp(job_config, ctx);
                    if (!r.ok())
                        throw StatusError(r.status());
                    return *std::move(r);
                });
            plan.emplace(key, std::move(cell));
            defer_order.push_back(key);
            ++outcome.computed;
            ++counters.cellsComputed;
            outcome.keys.push_back(std::move(key));
        }
        counters.cellHits += outcome.hits;

        if (!trace_error.ok()) {
            outcome.earlyResponse = makeErrorResponse(
                request.id, requestHash(request),
                std::move(trace_error)
                    .withContext("preparing trace for workload '",
                                 request.workload, "'"));
        }
    }

    // Progress preamble (frame order), then the one shared batch.
    if (config.emitEvents && stream_error.ok()) {
        for (const Outcome &outcome : outcomes) {
            if (outcome.request && !outcome.earlyResponse) {
                emitFrame(makePlannedEvent(
                    outcome.request->id, outcome.keys.size(),
                    outcome.hits, outcome.computed));
            }
        }
    }
    if (!defer_order.empty())
        runner.runAll();

    // Persist computed cells in submission order — deterministic log
    // contents for a given request history, and where the killAfter
    // crash countdown lives.
    for (const std::string &key : defer_order) {
        const PlannedCell &cell = plan.at(key);
        if (cell.job.succeeded())
            recordComputedCell(key, cell.job.get());
    }
    MLPSIM_RETURN_IF_ERROR(stream_error);

    // Responses, strictly in frame order.
    for (const Outcome &outcome : outcomes) {
        if (outcome.earlyResponse) {
            ++counters.responsesError;
            MLPSIM_RETURN_IF_ERROR(
                writer.write(outcome.earlyResponse->dump(0)));
            continue;
        }
        if (!outcome.request)
            continue; // control frame, already handled

        const SweepRequest &request = *outcome.request;
        std::vector<ResponseRow> rows;
        Status failed;
        for (size_t j = 0; j < outcome.keys.size(); ++j) {
            const PlannedCell &cell = plan.at(outcome.keys[j]);
            if (cell.hit) {
                rows.push_back({request.configs[j].name, cell.cached});
            } else if (cell.job.succeeded()) {
                rows.push_back(
                    {request.configs[j].name, cell.job.get()});
            } else {
                failed = cell.job.status();
                failed = std::move(failed).withContext(
                    "cell '", request.workload, "/",
                    request.configs[j].name, "'");
                break;
            }
        }
        if (!failed.ok()) {
            ++counters.responsesError;
            MLPSIM_RETURN_IF_ERROR(writer.write(
                makeErrorResponse(request.id, requestHash(request),
                                  failed)
                    .dump(0)));
            continue;
        }
        MLPSIM_RETURN_IF_ERROR(
            writer.write(makeOkResponse(request, rows).dump(0)));
    }

    if (metrics::enabled()) {
        auto &global = metrics::MetricRegistry::global();
        global.add("service/requests",
                   counters.requests - before.requests);
        global.add("service/cells", counters.cells - before.cells);
        global.add("service/cell_hits",
                   counters.cellHits - before.cellHits);
        global.add("service/cells_computed",
                   counters.cellsComputed - before.cellsComputed);
        global.add("service/responses_error",
                   counters.responsesError - before.responsesError);
    }
    return Status::okStatus();
}

Status
Daemon::serve(int in_fd, int out_fd)
{
    FrameReader reader(in_fd);
    FrameWriter writer(out_fd);
    {
        std::lock_guard<std::mutex> lock(writerMutex);
        activeWriter = &writer;
    }

    Status outcome;
    bool eof = false;
    while (!shuttingDown && !eof && outcome.ok()) {
        std::vector<std::string> frames;
        std::string frame;

        auto first = reader.read(&frame);
        if (!first.ok()) {
            outcome = first.status();
            break;
        }
        if (!*first)
            break; // clean EOF at a frame boundary
        frames.push_back(std::move(frame));

        // Drain the burst the client already queued so duplicates and
        // siblings share one ThreadPool batch.
        while (frames.size() < config.maxBatch && reader.pending()) {
            auto more = reader.read(&frame);
            if (!more.ok()) {
                outcome = more.status();
                break;
            }
            if (!*more) {
                eof = true;
                break;
            }
            frames.push_back(std::move(frame));
        }

        const Status handled = handleBatch(frames, writer);
        if (outcome.ok() && !handled.ok())
            outcome = handled;
    }

    if (shuttingDown && config.emitEvents)
        emitFrame(makeEvent("bye"));
    {
        std::lock_guard<std::mutex> lock(writerMutex);
        activeWriter = nullptr;
    }
    return outcome;
}

Status
Daemon::serveSocket(const std::string &path)
{
    sockaddr_un addr = {};
    if (path.size() >= sizeof addr.sun_path) {
        return Status::invalidArgument("socket path '", path,
                                       "' is too long for AF_UNIX");
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    ::unlink(path.c_str());
    const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0)
        return Status::ioError("socket: ", std::strerror(errno));
    if (::bind(listen_fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(listen_fd, 8) != 0) {
        const Status failed = Status::ioError(
            "binding '", path, "': ", std::strerror(errno));
        ::close(listen_fd);
        return failed;
    }

    Status outcome;
    while (!shuttingDown) {
        const int conn = ::accept(listen_fd, nullptr, nullptr);
        if (conn < 0) {
            if (errno == EINTR)
                continue;
            outcome = Status::ioError("accept: ",
                                      std::strerror(errno));
            break;
        }
        const Status served = serve(conn, conn);
        ::close(conn);
        if (!served.ok()) {
            // One misbehaving client never takes the daemon down.
            warn("mlpsimd: connection ended with: ", served.toString());
        }
    }
    ::close(listen_fd);
    ::unlink(path.c_str());
    return outcome;
}

} // namespace mlpsim::service
