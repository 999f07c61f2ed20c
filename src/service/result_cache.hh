/**
 * @file
 * Content-addressed (cell key → MlpResult) cache with an optional
 * persistent recordio backing log.
 *
 * The daemon's result tier: a cell that was ever computed — by this
 * process or by a daemon that crashed yesterday — is served from here
 * without simulating. It is also the checkpoint/resume journal of
 * golden_check and sweep_faultinject (--journal): a killed sweep
 * rerun against the same file recomputes only the missing cells.
 * Keys are the canonical cell-key JSON strings of service/wire.hh
 * (the full string, so hash collisions are impossible), which carry
 * the warm-up and measured budget, so one file may hold cells of any
 * budget; values are exact MlpResult records in the storage form of
 * core/result_json.hh, so a replayed result is bit-identical to the
 * original computation.
 *
 * Persistence reuses the CRC32-framed RecordLog (util/recordio.hh):
 * every record() appends one flushed frame, and open() replays the
 * log — salvaging a corrupt tail from a mid-append kill — so a
 * restarted daemon starts warm. Only *successful* results are ever
 * recorded; failures stay failures and are recomputed on retry.
 *
 * Thread-safe: lookup() may run concurrently with other lookups;
 * record() serialises (the daemon records from the runAll() caller in
 * submission order, keeping the log's record order deterministic for
 * a given request history).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/mlp_result.hh"
#include "util/recordio.hh"
#include "util/status.hh"

namespace mlpsim::service {

class ResultCache
{
  public:
    /** A memory-only cache (equivalent to open("")). */
    ResultCache() = default;

    /**
     * Open a cache backed by @p path (replaying any prior contents),
     * or a memory-only cache when @p path is empty. Fails only if an
     * existing backing file cannot be opened for append; a corrupt
     * tail or a meta mismatch is recovered per RecordLog::open().
     */
    static Expected<ResultCache> open(const std::string &path);

    ResultCache(ResultCache &&) = default;
    ResultCache &operator=(ResultCache &&) = default;

    /** The result recorded for @p cell_key, if any. */
    bool lookup(const std::string &cell_key,
                core::MlpResult *out) const;

    /** Record a computed result (appends to the backing log). */
    Status record(const std::string &cell_key,
                  const core::MlpResult &result);

    /** Distinct cells on record. */
    size_t size() const;

    /** True if open() dropped a corrupt tail from the backing log. */
    bool salvaged() const { return didSalvage; }

    /** True if open() rewrote the backing log to one frame per key
     *  (it held torn, duplicate or unparseable records). */
    bool compacted() const { return didCompact; }

    /** True when a backing log is attached. */
    bool persistent() const { return log != nullptr; }

  private:
    // Indirections keep ResultCache movable (RecordLog is move-only,
    // std::mutex is not movable at all).
    std::unique_ptr<std::mutex> mutex =
        std::make_unique<std::mutex>();
    std::unique_ptr<RecordLog> log; //!< null = memory-only
    std::unordered_map<std::string, core::MlpResult> entries;
    bool didSalvage = false;
    bool didCompact = false;
};

} // namespace mlpsim::service
