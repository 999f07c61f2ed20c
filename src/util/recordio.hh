/**
 * @file
 * Append-only, CRC32-framed record files: the storage layer of the
 * mlpsimd content-addressed result cache (service/result_cache.hh),
 * which is also the tools' sweep checkpoint/resume journal.
 *
 * The format is deliberately dumb so a half-written file is always
 * recoverable:
 *
 *   magic (8 bytes, "MLPRECJ1")
 *   frame 0:  the log's *meta* string (identifies schema + parameters)
 *   frame 1..n: payload records, appended one fflush()ed frame at a
 *               time
 *
 * where every frame is [u32-LE length][u32-LE CRC32][payload bytes].
 *
 * A process killed mid-append leaves at most one truncated or
 * CRC-corrupt frame at the tail. open() *salvages* such a file: the
 * valid prefix is kept, rewritten through the atomic temp-file+rename
 * idiom (so a second crash cannot make things worse), and appending
 * resumes after it. A file whose meta string does not match — a log
 * written in another format — is discarded and restarted rather than
 * half-trusted.
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hh"

namespace mlpsim {

/** A parsed record file: its meta string and every intact record. */
struct RecordFileContents
{
    std::string meta;
    std::vector<std::string> records;

    /** True when a corrupt/partial tail was dropped during parsing. */
    bool truncated = false;
};

/**
 * Read and validate @p path. NotFound if the file does not exist;
 * DataLoss if even the magic/meta prefix is unusable. A corrupt tail
 * is not an error: the valid prefix comes back with truncated = true.
 */
Expected<RecordFileContents> readRecordFile(const std::string &path);

/**
 * An open record log: recovered prefix plus an append handle.
 * Move-only; the destructor closes the file.
 */
class RecordLog
{
  public:
    /**
     * Open @p path for appending under @p meta. Outcomes:
     *  - no usable file (missing, bad prefix, meta mismatch): start
     *    fresh — recovered() is empty, freshStart() is true;
     *  - intact file with matching meta: append after its records;
     *  - corrupt tail with matching meta: salvage the valid prefix
     *    (atomic rewrite), then append — salvaged() is true.
     */
    static Expected<RecordLog> open(const std::string &path,
                                    const std::string &meta);

    RecordLog(RecordLog &&other) noexcept { *this = std::move(other); }
    RecordLog &
    operator=(RecordLog &&other) noexcept
    {
        if (this != &other) {
            closeFile();
            out = other.out;
            other.out = nullptr;
            loaded = std::move(other.loaded);
            logPath = std::move(other.logPath);
            logMeta = std::move(other.logMeta);
            didSalvage = other.didSalvage;
            fresh = other.fresh;
        }
        return *this;
    }

    RecordLog(const RecordLog &) = delete;
    RecordLog &operator=(const RecordLog &) = delete;

    ~RecordLog() { closeFile(); }

    /** Records recovered from the pre-existing file, in file order. */
    const std::vector<std::string> &recovered() const { return loaded; }

    /** True if a corrupt tail was dropped and the file rewritten. */
    bool salvaged() const { return didSalvage; }

    /** True if no prior contents were usable (new or discarded file). */
    bool freshStart() const { return fresh; }

    const std::string &path() const { return logPath; }

    /**
     * Append one framed record and flush it to the OS, so a subsequent
     * crash loses at most the frame currently being written.
     */
    Status append(std::string_view payload);

    /**
     * Atomically replace the log's contents with @p records (same
     * temp-file+rename idiom as salvage) and resume appending after
     * them. This is the compaction primitive: a replay layer that
     * collapsed duplicate or superseded records rewrites the log to
     * the collapsed set. recovered() reflects the new contents; a
     * crash mid-rewrite leaves the old file intact.
     */
    Status rewrite(std::vector<std::string> records);

  private:
    RecordLog() = default;

    void
    closeFile()
    {
        if (out) {
            std::fclose(out);
            out = nullptr;
        }
    }

    std::FILE *out = nullptr;
    std::vector<std::string> loaded;
    std::string logPath;
    std::string logMeta;
    bool didSalvage = false;
    bool fresh = true;
};

} // namespace mlpsim
