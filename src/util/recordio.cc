#include "recordio.hh"

#include <cerrno>
#include <cstring>

#include "util/crc32.hh"
#include "util/file_io.hh"

namespace mlpsim {

namespace {

constexpr char kMagic[8] = {'M', 'L', 'P', 'R', 'E', 'C', 'J', '1'};

void
putU32(std::string &out, uint32_t v)
{
    out.push_back(char(v & 0xFF));
    out.push_back(char((v >> 8) & 0xFF));
    out.push_back(char((v >> 16) & 0xFF));
    out.push_back(char((v >> 24) & 0xFF));
}

uint32_t
getU32(const char *p)
{
    return uint32_t(uint8_t(p[0])) | (uint32_t(uint8_t(p[1])) << 8) |
           (uint32_t(uint8_t(p[2])) << 16) |
           (uint32_t(uint8_t(p[3])) << 24);
}

std::string
frame(std::string_view payload)
{
    std::string out;
    out.reserve(8 + payload.size());
    putU32(out, uint32_t(payload.size()));
    putU32(out, Crc32::compute(payload.data(), payload.size()));
    out.append(payload);
    return out;
}

/**
 * Parse one frame at @p off. Returns true and advances @p off past the
 * frame on success; false (leaving @p off unchanged) if the data at
 * @p off is truncated or fails its CRC — the caller treats everything
 * from there on as the corrupt tail.
 */
bool
parseFrame(const std::string &data, size_t &off, std::string *payload)
{
    if (data.size() - off < 8)
        return false;
    const uint32_t len = getU32(data.data() + off);
    const uint32_t crc = getU32(data.data() + off + 4);
    if (data.size() - off - 8 < len)
        return false;
    if (Crc32::compute(data.data() + off + 8, len) != crc)
        return false;
    payload->assign(data.data() + off + 8, len);
    off += 8 + len;
    return true;
}

Expected<std::string>
readWholeFile(const std::string &path)
{
    std::FILE *in = std::fopen(path.c_str(), "rb");
    if (!in) {
        if (errno == ENOENT)
            return Status::notFound("no such file: '", path, "'");
        return Status::ioError("opening '", path,
                               "': ", std::strerror(errno));
    }
    std::string data;
    char buf[1 << 16];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, in)) != 0)
        data.append(buf, got);
    const bool failed = std::ferror(in) != 0;
    std::fclose(in);
    if (failed)
        return Status::ioError("reading '", path, "'");
    return data;
}

std::string
serialize(const std::string &meta,
          const std::vector<std::string> &records)
{
    std::string out(kMagic, sizeof kMagic);
    out += frame(meta);
    for (const auto &record : records)
        out += frame(record);
    return out;
}

} // namespace

Expected<RecordFileContents>
readRecordFile(const std::string &path)
{
    MLPSIM_ASSIGN_OR_RETURN(const std::string data, readWholeFile(path));

    RecordFileContents contents;
    if (data.size() < sizeof kMagic ||
        std::memcmp(data.data(), kMagic, sizeof kMagic) != 0) {
        return Status::dataLoss("'", path,
                                "' is not a record file (bad magic)");
    }
    size_t off = sizeof kMagic;
    if (!parseFrame(data, off, &contents.meta)) {
        return Status::dataLoss("'", path,
                                "': meta frame truncated or corrupt");
    }
    std::string payload;
    while (off < data.size()) {
        if (!parseFrame(data, off, &payload)) {
            contents.truncated = true;
            break;
        }
        contents.records.push_back(std::move(payload));
        payload.clear();
    }
    return contents;
}

Expected<RecordLog>
RecordLog::open(const std::string &path, const std::string &meta)
{
    RecordLog log;
    log.logPath = path;
    log.logMeta = meta;

    auto contents = readRecordFile(path);
    const bool usable = contents.ok() && contents->meta == meta;
    if (contents.ok() && contents->meta != meta) {
        warn("record log '", path, "': meta mismatch (found '",
             contents->meta, "', want '", meta, "'); starting fresh");
    } else if (!contents.ok() &&
               contents.status().code() == ErrorCode::DataLoss) {
        warn("record log '", path, "': ", contents.status().message(),
             "; starting fresh");
    } else if (!contents.ok() &&
               contents.status().code() != ErrorCode::NotFound) {
        // A real I/O failure (permissions, disk): surface it rather
        // than silently clobbering a file we could not even read.
        return std::move(contents).status();
    }

    if (usable) {
        log.fresh = false;
        log.loaded = std::move(contents->records);
        if (contents->truncated) {
            // Drop the corrupt tail for good before appending after it.
            log.didSalvage = true;
            MLPSIM_RETURN_IF_ERROR(
                writeFileAtomic(path, serialize(meta, log.loaded))
                    .withContext("salvaging record log"));
        }
        log.out = std::fopen(path.c_str(), "ab");
        if (!log.out) {
            return Status::ioError("opening '", path,
                                   "' for append: ",
                                   std::strerror(errno));
        }
        return log;
    }

    // Fresh start: write the header + meta frame, then hold the handle
    // open for appends.
    log.out = std::fopen(path.c_str(), "wb");
    if (!log.out) {
        return Status::ioError("creating '", path,
                               "': ", std::strerror(errno));
    }
    const std::string header = serialize(meta, {});
    if (std::fwrite(header.data(), 1, header.size(), log.out) !=
            header.size() ||
        std::fflush(log.out) != 0) {
        return Status::ioError("writing header of '", path, "'");
    }
    return log;
}

Status
RecordLog::rewrite(std::vector<std::string> records)
{
    MLPSIM_ASSERT(out != nullptr, "rewrite() on a moved-from RecordLog");
    // Flush and drop the append handle first: the rename below swaps
    // the inode out from under it, and any buffered bytes must land in
    // the *old* file image being replaced, not after it.
    std::fflush(out);
    closeFile();
    MLPSIM_RETURN_IF_ERROR(
        writeFileAtomic(logPath, serialize(logMeta, records))
            .withContext("rewriting record log"));
    loaded = std::move(records);
    out = std::fopen(logPath.c_str(), "ab");
    if (!out) {
        return Status::ioError("reopening '", logPath,
                               "' for append: ", std::strerror(errno));
    }
    return Status::okStatus();
}

Status
RecordLog::append(std::string_view payload)
{
    MLPSIM_ASSERT(out != nullptr, "append() on a moved-from RecordLog");
    const std::string framed = frame(payload);
    if (std::fwrite(framed.data(), 1, framed.size(), out) !=
            framed.size() ||
        std::fflush(out) != 0) {
        return Status::ioError("appending to '", logPath,
                               "': ", std::strerror(errno));
    }
    return Status::okStatus();
}

} // namespace mlpsim
