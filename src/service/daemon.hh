/**
 * @file
 * The mlpsimd sweep daemon: a long-running service that accepts
 * framed sweep-request documents, batches compatible work onto one
 * shared SweepRunner, and answers every request — in request order —
 * with a response that is a pure function of the request's content.
 *
 * Request lifecycle:
 *
 *   1. *Drain.* serve() blocks for one frame, then greedily drains
 *      whatever else the client already queued (up to maxBatch
 *      frames), so a pipelined burst becomes one batch sharing the
 *      thread pool instead of N serialised round trips.
 *   2. *Validate.* Each frame parses through the wire layer; every
 *      defect — bad JSON, wrong schema, unknown workload, an
 *      inconsistent machine — becomes a status:"error" response
 *      carrying the PR 6 FailureClass taxonomy. The daemon never
 *      aborts on request content; fatal() stays reserved for
 *      operator errors at startup (bad flags, unusable cache dir).
 *   3. *Plan.* Each request expands into cells (one per config).
 *      Cells already in the result cache are hits; identical cells
 *      within the batch are deduplicated onto one job; the rest
 *      defer onto the SweepRunner with the request's deadline/retry
 *      limits, reading a shared immutable trace from the TraceCache.
 *   4. *Execute.* One runAll() per batch, which records every failure
 *      and never throws — one bad cell degrades its request to an
 *      error response, never the batch, never the process.
 *   5. *Record + respond.* Computed cells append to the persistent
 *      result cache (submission order, so the log is deterministic
 *      for a given request history); responses go out in frame
 *      order. A request whose cells all hit the cache answers
 *      without simulating anything — byte-identical to its cold
 *      counterpart, because response bodies carry no cache metadata.
 *
 * Progress events (optional, --events): "planned" per request before
 * execution, "cell-done" streamed live after every cell attempt by the
 * job-end callback of the daemon's own SweepRunner — so each of
 * several daemons in one process streams exactly its own cells. Per-
 * cell metrics keep SweepRunner's deterministic submission-order
 * merge.
 *
 * Crash injection: killAfter > 0 makes the daemon _Exit(42) right
 * after recording its Nth computed cell, deliberately leaving a
 * truncated frame at the cache tail — the service_smoke harness uses
 * this to prove a restarted daemon salvages the log and stays warm.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "metrics/json.hh"
#include "service/result_cache.hh"
#include "service/trace_cache.hh"
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
    unsigned maxBatch = 16;   //!< frames drained into one batch
    uint64_t killAfter = 0;   //!< crash-inject after N recorded cells
    bool emitEvents = true;
};

/** Lifetime service counters (see also TraceCache::Stats). */
struct ServiceStats
{
    uint64_t requests = 0;       //!< request frames parsed OK
    uint64_t responsesError = 0; //!< error responses sent
    uint64_t cells = 0;          //!< cells across all OK requests
    uint64_t cellHits = 0;       //!< served from cache / batch dedup
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

    void emitFrame(const metrics::JsonValue &event);
    Status handleBatch(const std::vector<std::string> &frames,
                       FrameWriter &writer);
    void recordComputedCell(const std::string &cell_key,
                            const core::MlpResult &result);

    DaemonConfig config;
    SweepRunner runner;
    TraceCache traces;
    ResultCache results;
    ServiceStats counters;

    uint64_t recordedCells = 0; //!< killAfter countdown basis
    bool shuttingDown = false;

    std::mutex writerMutex; //!< guards activeWriter across job threads
    FrameWriter *activeWriter = nullptr;
};

} // namespace mlpsim::service
