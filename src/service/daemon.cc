#include "daemon.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/mlpsim.hh"
#include "metrics/registry.hh"
#include "service/framing.hh"
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

void
Daemon::startCells()
{
    runner.start();
    // Seal the streamed groups: a group runs as soon as its first job
    // does, so cells deferred from here on form new groups.
    grid.clear();
    framesSinceStart = 0;
}

void
Daemon::plan(const std::string &frame, FrameWriter &writer,
             Status *write_error)
{
    Outstanding outcome;

    auto doc = JsonValue::parse(frame);
    if (!doc.ok()) {
        outcome.earlyResponse = makeErrorResponse(
            "", "",
            Status::invalidArgument("request is not valid JSON: ",
                                    doc.status().message()));
        outstanding.push_back(std::move(outcome));
        return;
    }

    const JsonValue *schema = doc->find("schema");
    if (schema && schema->isString() &&
        schema->string() == sweepControlSchema) {
        const JsonValue *cmd = doc->find("command");
        const std::string command =
            cmd && cmd->isString() ? cmd->string() : "";
        if (command == "shutdown") {
            shuttingDown = true;
        } else if (command == "ping") {
            *write_error = writer.write(makeEvent("pong").dump(0));
        } else {
            outcome.earlyResponse = makeErrorResponse(
                "", "",
                Status::invalidArgument("unknown control command '",
                                        command, "'"));
            outstanding.push_back(std::move(outcome));
        }
        return;
    }

    auto parsed = parseSweepRequest(*doc, config.maxInsts);
    if (!parsed.ok()) {
        // Salvage the id for correlation when it parsed at least that
        // far; the request itself is rejected, not the connection and
        // certainly not the process.
        std::string id;
        if (const JsonValue *id_field = doc->find("id");
            id_field && id_field->isString())
            id = id_field->string();
        outcome.earlyResponse = makeErrorResponse(id, "", parsed.status());
        outstanding.push_back(std::move(outcome));
        return;
    }
    outcome.request = std::move(*parsed);
    const SweepRequest &request = *outcome.request;
    ++counters.requests;
    counters.cells += request.configs.size();

    std::shared_ptr<const core::PreparedTrace> prepared;
    Status trace_error;
    uint64_t hits = 0, computed = 0;
    for (const RequestConfig &rc : request.configs) {
        PlannedCell cell;
        cell.key = cellKey(request, rc.config);

        if (const auto it = inFlight.find(cell.key); it != inFlight.end()) {
            // An earlier outstanding request (or this one) already
            // computes this cell: share its job.
            cell.job = it->second;
            ++hits;
            outcome.cells.push_back(std::move(cell));
            continue;
        }
        if (results.lookup(cell.key, &cell.cached)) {
            ++hits;
            outcome.cells.push_back(std::move(cell));
            continue;
        }

        if (!prepared) {
            core::TraceSpec spec;
            spec.workload = request.workload;
            spec.seed = request.seed;
            spec.totalInsts = request.warmup + request.insts;
            spec.streamChunk = config.streamChunk;
            spec.annotation.warmupInsts = request.warmup;
            // A build is coming: let the workers run the cells planned
            // so far while this thread builds.
            if (!traces.contains(spec))
                startCells();
            auto trace = traces.get(spec);
            if (!trace.ok()) {
                trace_error = trace.status();
                break;
            }
            prepared = *std::move(trace);
        }

        JobLimits limits;
        limits.deadlineMillis = request.deadlineMillis;
        limits.maxAttempts = request.maxAttempts;
        runner.setJobLimits(limits);

        const core::MlpConfig job_config = rc.config;
        const std::string workload = request.workload;
        // The body holds the trace, so a cache eviction cannot free it
        // under a queued cell; the runner drops the body once it ran.
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
        cell.owned = true;
        inFlight.emplace(cell.key, cell.job);
        ++computed;
        ++counters.cellsComputed;
        outcome.cells.push_back(std::move(cell));
    }
    counters.cellHits += hits;

    if (!trace_error.ok()) {
        // The trace is fetched before the request defers any cell, so
        // it owns none: its hits need not be waited for.
        outcome.cells.clear();
        outcome.earlyResponse = makeErrorResponse(
            request.id, requestHash(request),
            std::move(trace_error)
                .withContext("preparing trace for workload '",
                             request.workload, "'"));
    } else if (config.emitEvents) {
        emitFrame(makePlannedEvent(request.id, outcome.cells.size(), hits,
                                   computed));
    }
    outstanding.push_back(std::move(outcome));
}

bool
Daemon::Outstanding::done() const
{
    for (const PlannedCell &cell : cells)
        if (cell.job.valid() && !cell.job.done())
            return false;
    return true;
}

Status
Daemon::retire(FrameWriter &writer, bool respond)
{
    Outstanding outcome = std::move(outstanding.front());
    outstanding.pop_front();

    // Persist the cells this request computed in submission order —
    // deterministic log contents for a given request history, and
    // where the killAfter crash countdown lives. A later duplicate now
    // finds the cell in the result cache.
    for (const PlannedCell &cell : outcome.cells) {
        if (!cell.owned)
            continue;
        if (cell.job.succeeded())
            recordComputedCell(cell.key, cell.job.get());
        inFlight.erase(cell.key);
    }
    if (!respond)
        return Status::okStatus();

    if (outcome.earlyResponse) {
        ++counters.responsesError;
        return writer.write(outcome.earlyResponse->dump(0));
    }
    const SweepRequest &request = *outcome.request;
    std::vector<ResponseRow> rows;
    for (size_t j = 0; j < outcome.cells.size(); ++j) {
        const PlannedCell &cell = outcome.cells[j];
        if (!cell.job.valid()) {
            rows.push_back({request.configs[j].name, cell.cached});
        } else if (cell.job.succeeded()) {
            rows.push_back({request.configs[j].name, cell.job.get()});
        } else {
            Status failed = cell.job.status();
            failed = std::move(failed).withContext(
                "cell '", request.workload, "/", request.configs[j].name,
                "'");
            ++counters.responsesError;
            return writer.write(
                makeErrorResponse(request.id, requestHash(request), failed)
                    .dump(0));
        }
    }
    return writer.write(makeOkResponse(request, rows).dump(0));
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
    const ServiceStats before = counters;

    // A ROB of frames: each frame is planned as it is read, its cells
    // run while later frames are read and their traces built, and
    // answers retire strictly in frame order. A failed read stops
    // reading but still answers the frames before it; a failed write
    // stops reading and answering, but the cells already planned still
    // run and are recorded, so no job is left to run in the next
    // connection's batch.
    Status read_error, write_error;
    bool reading = true;
    bool served_frames = false;
    for (;;) {
        while (!outstanding.empty() && outstanding.front().done()) {
            const Status answered = retire(writer, write_error.ok());
            if (write_error.ok())
                write_error = answered;
        }
        if (!write_error.ok())
            reading = false;
        if (outstanding.empty()) {
            // Every started cell is done: close the runner's batch
            // (failure records, spans, the submission-order metric
            // merge).
            runner.runAll();
            if (!reading)
                break;
        }

        if (reading && (outstanding.empty() || reader.pending())) {
            std::string frame;
            auto got = reader.read(&frame);
            if (!got.ok() || !*got) {
                if (!got.ok())
                    read_error = got.status();
                reading = false; // error, or clean EOF at a boundary
                continue;
            }
            served_frames = true;
            plan(frame, writer, &write_error);
            if (shuttingDown)
                reading = false;
            if (++framesSinceStart >= config.maxBatch)
                startCells();
            continue;
        }

        // Nothing to read: run what is planned, wait for the oldest.
        startCells();
        for (const PlannedCell &cell : outstanding.front().cells)
            if (cell.job.valid())
                runner.wait(cell.job);
    }

    if (served_frames && metrics::enabled()) {
        auto &global = metrics::MetricRegistry::global();
        global.add("service/requests", counters.requests - before.requests);
        global.add("service/cells", counters.cells - before.cells);
        global.add("service/cell_hits",
                   counters.cellHits - before.cellHits);
        global.add("service/cells_computed",
                   counters.cellsComputed - before.cellsComputed);
        global.add("service/responses_error",
                   counters.responsesError - before.responsesError);
    }
    if (shuttingDown && config.emitEvents)
        emitFrame(makeEvent("bye"));
    {
        std::lock_guard<std::mutex> lock(writerMutex);
        activeWriter = nullptr;
    }
    return read_error.ok() ? write_error : read_error;
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
