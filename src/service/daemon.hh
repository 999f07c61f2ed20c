/**
 * @file
 * The mlpsimd sweep daemon: a long-running service that accepts
 * framed sweep-request documents, runs their cells on one shared
 * SweepRunner, and answers every request — in request order — with a
 * response that is a pure function of the request's content.
 *
 * Request lifecycle — a pipeline that retires in order, like a ROB:
 *
 *   1. *Read.* serve() reads a frame whenever one is readable (and
 *      blocks for one only when no request is outstanding), so a
 *      pipelined burst is planned while earlier requests' cells run.
 *   2. *Validate.* Each frame parses through the wire layer; every
 *      defect — bad JSON, wrong schema, unknown workload, an
 *      inconsistent machine — becomes a status:"error" response
 *      carrying the PR 6 FailureClass taxonomy. The daemon never
 *      aborts on request content; fatal() stays reserved for
 *      operator errors at startup (bad flags, unusable cache dir).
 *   3. *Plan.* Each request expands into cells (one per config) as
 *      its frame is read. A cell is a hit if the result cache holds
 *      it or an earlier outstanding request already computes it (it
 *      then shares that job); the rest defer onto the SweepRunner
 *      with the request's deadline/retry limits, reading a shared
 *      immutable trace from the TraceCache.
 *   4. *Execute.* The runner starts the deferred cells before each
 *      trace build (so the build overlaps them), when no further frame
 *      is readable, and after maxBatch frames. A cell failure is
 *      recorded, never thrown — one bad cell degrades its request to
 *      an error response, never the connection, never the process.
 *   5. *Retire.* The oldest request is answered as soon as its cells
 *      are done; the serve thread blocks on it only when no frame is
 *      readable. Its computed cells are appended to the persistent
 *      result cache first (submission order, so the log is
 *      deterministic for a given request history), and the runner's
 *      batch is closed (runAll()) whenever nothing is outstanding. A
 *      request whose cells all hit the cache answers without
 *      simulating anything — byte-identical to its cold counterpart,
 *      because response bodies carry no cache metadata.
 *
 * Progress events (optional, --events): "planned" per request as it is
 * planned, before its cells start; "cell-done" streamed live after
 * every cell attempt by the job-end callback of the daemon's own
 * SweepRunner — so each of several daemons in one process streams
 * exactly its own cells. Per-cell metrics keep SweepRunner's
 * deterministic submission-order merge.
 *
 * Crash injection: killAfter > 0 makes the daemon _Exit(42) right
 * after recording its Nth computed cell, deliberately leaving a
 * truncated frame at the cache tail — the service_smoke harness uses
 * this to prove a restarted daemon salvages the log and stays warm.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/shared_stream.hh"
#include "metrics/json.hh"
#include "service/result_cache.hh"
#include "service/trace_cache.hh"
#include "service/wire.hh"
#include "util/parallel.hh"
#include "util/status.hh"

namespace mlpsim::service {

class FrameWriter;

struct DaemonConfig
{
    unsigned jobs = 0;        //!< SweepRunner threads (0 = hardware)
    std::string cacheDir;     //!< holds results.rec; "" = memory-only
    size_t traceCacheCapacity = 4;
    /**
     * --stream-chunk: non-zero prepares traces in streamed mode with
     * this chunk capacity (memory stops scaling with the instruction
     * budget) and groups a batch's computed cells by trace so each
     * group's engines consume shared stream generations
     * (core::CellGrid). Cells of requests with a deadline or retries
     * join their trace's group too: each cell keeps its request's
     * deadline, and a retried cell re-runs alone. Responses are
     * byte-identical to materialised mode.
     */
    uint32_t streamChunk = 0;
    uint64_t maxInsts = 100'000'000; //!< per-request warmup+insts cap
    unsigned maxBatch = 16;   //!< frames planned before cells start
    uint64_t killAfter = 0;   //!< crash-inject after N recorded cells
    bool emitEvents = true;
};

/** Lifetime service counters (see also TraceCache::Stats). */
struct ServiceStats
{
    uint64_t requests = 0;       //!< request frames parsed OK
    uint64_t responsesError = 0; //!< error responses sent
    uint64_t cells = 0;          //!< cells across all OK requests
    uint64_t cellHits = 0;       //!< served from cache / in flight
    uint64_t cellsComputed = 0;  //!< simulated this process
};

class Daemon
{
  public:
    /**
     * Construct a daemon: opens (and replays) the persistent result
     * cache under config.cacheDir. Fails if an existing cache file is
     * unusable for append.
     */
    static Expected<std::unique_ptr<Daemon>> create(DaemonConfig config);

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Serve one framed stream until clean EOF or a shutdown control
     * frame. Returns the first stream-level failure (truncated frame,
     * broken pipe); request-level failures never surface here.
     */
    Status serve(int in_fd, int out_fd);

    /**
     * Bind an AF_UNIX stream socket at @p path and serve one
     * connection at a time until a client sends shutdown.
     */
    Status serveSocket(const std::string &path);

    const ServiceStats &stats() const { return counters; }
    TraceCache::Stats traceStats() const { return traces.stats(); }
    const ResultCache &resultCache() const { return results; }
    bool shutdownRequested() const { return shuttingDown; }

  private:
    explicit Daemon(DaemonConfig daemon_config);

    /** One cell of a planned request. */
    struct PlannedCell
    {
        std::string key;
        Job<core::MlpResult> job; //!< invalid when the cache held it
        core::MlpResult cached;   //!< the result when !job.valid()
        bool owned = false;       //!< this request deferred the job
    };
    /** A frame read and planned but not yet answered. */
    struct Outstanding
    {
        std::optional<metrics::JsonValue> earlyResponse; //!< an error
        std::optional<SweepRequest> request;
        std::vector<PlannedCell> cells; //!< config order

        /** Every cell's job has run (never blocks). */
        bool done() const;
    };

    void emitFrame(const metrics::JsonValue &event);
    /** Parse and plan one frame; a failed pong write lands in
     *  @p write_error. */
    void plan(const std::string &frame, FrameWriter &writer,
              Status *write_error);
    /** Start every deferred cell and seal the streamed groups. */
    void startCells();
    /** Record the oldest request's computed cells and, if @p respond,
     *  write its response. @pre its cells are done. */
    Status retire(FrameWriter &writer, bool respond);
    void recordComputedCell(const std::string &cell_key,
                            const core::MlpResult &result);

    DaemonConfig config;
    SweepRunner runner;
    TraceCache traces;
    ResultCache results;
    ServiceStats counters;

    // The serve loop's pipeline (serve-thread only), in frame order.
    std::deque<Outstanding> outstanding;
    /** Cells deferred by an outstanding request, until it retires. */
    std::unordered_map<std::string, Job<core::MlpResult>> inFlight;
    /** Streamed mode: groups cells over one trace onto shared stream
     *  generations (core::CellGrid) until the next start. */
    core::CellGrid grid;
    unsigned framesSinceStart = 0;

    uint64_t recordedCells = 0; //!< killAfter countdown basis
    bool shuttingDown = false;

    std::mutex writerMutex; //!< guards activeWriter across job threads
    FrameWriter *activeWriter = nullptr;
};

} // namespace mlpsim::service
