/**
 * @file
 * mlpsimd — the persistent sweep service daemon.
 *
 * Accepts framed mlpsim-sweep-request-v1 documents (service/wire.hh)
 * over stdin/stdout (--stdio, the default — the transport sweep_client
 * --spawn uses) or an AF_UNIX stream socket (--socket PATH), batches
 * compatible requests onto one shared SweepRunner, and serves
 * duplicate work from two content-addressed caches: prepared traces
 * (an in-memory LRU; traces are regenerated, never persisted) and
 * finished cell results (a persistent CRC-framed recordio log that
 * survives crashes and warms the next daemon). See service/daemon.hh
 * for the full lifecycle.
 *
 * Flags:
 *   --stdio             serve stdin/stdout (default)
 *   --socket PATH       serve an AF_UNIX socket instead
 *   --cache-dir DIR     persistence root (results.rec);
 *                       absent = memory-only result cache
 *   --jobs N            sweep worker threads (0 = hardware)
 *   --trace-cache N     in-memory prepared-trace LRU capacity
 *   --max-insts N       reject requests above this warmup+insts
 *   --batch-max N       max frames drained into one batch
 *   --kill-after N      crash-inject: _Exit(42) after N recorded
 *                       cells, leaving a torn cache tail (tests)
 *   --no-events         suppress progress event frames
 *   --metrics-out FILE  enable metrics; write a snapshot at clean exit
 *
 * Error-handling split (DESIGN.md): operator errors — a bad flag, an
 * unusable cache directory — terminate via fatal() before serving.
 * Everything a *client* can cause is answered with a classified
 * status:"error" response; no request content reaches fatal().
 */
#include <climits>
#include <csignal>
#include <cstdio>
#include <string>

#include "metrics/export.hh"
#include "metrics/registry.hh"
#include "service/daemon.hh"
#include "util/logging.hh"
#include "util/options.hh"

using namespace mlpsim;

int
main(int argc, char **argv)
{
    // A client that disconnects mid-write must surface as an EPIPE
    // Status on that connection, not kill the daemon with SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);

    Options opts(argc, argv);
    opts.rejectUnknown({"stdio", "socket", "cache-dir", "jobs",
                        "trace-cache", "max-insts", "batch-max",
                        "kill-after", "no-events", "metrics-out",
                        "stream-chunk"});

    const std::string socket_path = opts.getString("socket", "");
    if (opts.has("stdio") && !socket_path.empty())
        fatal("--stdio and --socket are mutually exclusive");

    service::DaemonConfig config;
    config.cacheDir = opts.getString("cache-dir", "");
    config.jobs = parseJobs(opts, 0).orFatal();
    config.traceCacheCapacity = opts.getU64("trace-cache", 4);
    config.maxInsts = opts.getU64("max-insts", 100'000'000);
    const uint64_t batch_max = opts.getU64("batch-max", 16);
    if (batch_max > UINT_MAX)
        fatal("--batch-max=", batch_max, " must be at most ", UINT_MAX);
    config.maxBatch = unsigned(batch_max);
    config.killAfter = opts.getU64("kill-after", 0);
    config.emitEvents = !opts.has("no-events");
    const uint64_t stream_chunk = opts.getU64("stream-chunk", 0);
    if (stream_chunk > (uint64_t(1) << 24))
        fatal("--stream-chunk must be <= 2^24");
    config.streamChunk = static_cast<uint32_t>(stream_chunk);
    if (config.maxBatch == 0)
        fatal("--batch-max must be >= 1");
    if (config.killAfter != 0 && config.cacheDir.empty())
        fatal("--kill-after requires --cache-dir (nothing would "
              "survive the crash)");

    const std::string metrics_out = opts.getString("metrics-out", "");
    if (!metrics_out.empty())
        metrics::setEnabled(true);

    auto daemon = service::Daemon::create(config).orFatal();
    if (daemon->resultCache().persistent()) {
        std::fprintf(stderr,
                     "mlpsimd: result cache '%s/results.rec': %zu "
                     "cells warm%s\n",
                     config.cacheDir.c_str(),
                     daemon->resultCache().size(),
                     daemon->resultCache().salvaged()
                         ? " (salvaged corrupt tail)"
                         : "");
    }

    Status served;
    if (!socket_path.empty()) {
        std::fprintf(stderr, "mlpsimd: serving socket %s\n",
                     socket_path.c_str());
        served = daemon->serveSocket(socket_path);
    } else {
        served = daemon->serve(0, 1);
    }
    if (!served.ok())
        fatal("mlpsimd: ", served.toString());

    const service::ServiceStats &stats = daemon->stats();
    const service::TraceCache::Stats traces = daemon->traceStats();
    std::fprintf(stderr,
                 "mlpsimd: served %llu requests (%llu cells: %llu "
                 "hits, %llu computed; traces: %llu built, %llu "
                 "memory hits; %llu errors)\n",
                 static_cast<unsigned long long>(stats.requests),
                 static_cast<unsigned long long>(stats.cells),
                 static_cast<unsigned long long>(stats.cellHits),
                 static_cast<unsigned long long>(stats.cellsComputed),
                 static_cast<unsigned long long>(traces.builds),
                 static_cast<unsigned long long>(traces.memoryHits),
                 static_cast<unsigned long long>(
                     stats.responsesError));

    if (!metrics_out.empty()) {
        metrics::JsonValue meta = metrics::JsonValue::object();
        meta.set("tool", "mlpsimd");
        metrics::writeSnapshotFile(metrics_out, std::move(meta))
            .orFatal();
        std::fprintf(stderr, "mlpsimd: metrics written to %s\n",
                     metrics_out.c_str());
    }
    return 0;
}
