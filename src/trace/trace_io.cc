#include "trace_io.hh"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>

#include "util/crc32.hh"

namespace mlpsim::trace {

namespace {

constexpr char traceMagic[4] = {'M', 'L', 'P', 'T'};

/** The 88-byte on-disk header. */
struct FileHeader
{
    char magic[4];
    uint32_t version;
    uint64_t numInsts;
    char name[64];
    uint32_t payloadCrc; // CRC-32 of all payload bytes
    uint32_t headerCrc;  // CRC-32 of bytes [0, offsetof(headerCrc))
};

constexpr size_t headerSize = sizeof(FileHeader);
constexpr size_t headerCrcSpan = offsetof(FileHeader, headerCrc);
static_assert(headerSize == 88, "trace header layout drifted");

/** Payload prologue, immediately after the header. */
struct ChunkPrologue
{
    uint64_t chunkCapacity;
    uint64_t numChunks;
};
static_assert(sizeof(ChunkPrologue) == 16, "prologue layout drifted");

/** Bytes one instruction occupies inside a chunk section. */
constexpr uint64_t bytesPerInst = 3 * 8 + 5;
/** Per-chunk section overhead: the count and chunkCrc words. */
constexpr uint64_t chunkOverhead = 8;
/** Largest chunk capacity the reader will allocate for. */
constexpr uint64_t maxChunkCapacity = uint64_t(1) << 20;

constexpr uint8_t maxInstClass =
    static_cast<uint8_t>(InstClass::Serializing);
constexpr uint8_t maxBranchKind = static_cast<uint8_t>(BranchKind::Jump);

struct FileCloser
{
    void operator()(std::FILE *f) const { if (f) std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/**
 * Range-check one packed meta byte: the class and branch-kind
 * fields must name real enumerators and the unused high bit must be
 * clear, so corrupt column bytes cannot smuggle an out-of-range enum
 * into the simulators.
 */
Status
checkMetaByte(uint8_t meta, uint64_t index)
{
    if ((meta & Instruction::clsMask) > maxInstClass) {
        return Status::dataLoss("record ", index,
                                ": invalid instruction class ",
                                unsigned(meta & Instruction::clsMask));
    }
    const uint8_t br_kind =
        (meta >> Instruction::brKindShift) & Instruction::clsMask;
    if (br_kind > maxBranchKind) {
        return Status::dataLoss("record ", index,
                                ": invalid branch kind ",
                                unsigned(br_kind));
    }
    if ((meta & 0x80) != 0) {
        return Status::dataLoss("record ", index,
                                ": invalid meta byte ", unsigned(meta));
    }
    return Status::okStatus();
}

Expected<uint64_t>
fileSize(std::FILE *f, const std::string &path)
{
    if (std::fseek(f, 0, SEEK_END) != 0)
        return Status::ioError("cannot seek in '", path, "'");
    const long size = std::ftell(f);
    if (size < 0)
        return Status::ioError("cannot determine size of '", path, "'");
    if (std::fseek(f, 0, SEEK_SET) != 0)
        return Status::ioError("cannot seek in '", path, "'");
    return uint64_t(size);
}

/** Write raw bytes, folding them into the payload CRC. */
bool
writePayload(std::FILE *f, Crc32 &crc, const void *data, size_t bytes)
{
    if (bytes == 0)
        return true;
    crc.update(data, bytes);
    return std::fwrite(data, bytes, 1, f) == 1;
}

/** The payload: the chunk prologue plus one SoA section per chunk. */
Status
writeChunks(std::FILE *f, Crc32 &crc, const TraceBuffer &buffer)
{
    const ChunkPrologue pro{TraceBuffer::chunkCapacity,
                            buffer.numChunks()};
    if (!writePayload(f, crc, &pro, sizeof(pro)))
        return Status::ioError("short write of chunk prologue");

    for (size_t ci = 0; ci < buffer.numChunks(); ++ci) {
        const TraceChunk &c = buffer.chunk(ci);
        const size_t n = c.count;
        Crc32 chunk_crc;
        chunk_crc.update(c.pc.data(), n * 8);
        chunk_crc.update(c.effAddr.data(), n * 8);
        chunk_crc.update(c.payload.data(), n * 8);
        chunk_crc.update(c.meta.data(), n);
        chunk_crc.update(c.dst.data(), n);
        chunk_crc.update(c.src0.data(), n);
        chunk_crc.update(c.src1.data(), n);
        chunk_crc.update(c.src2.data(), n);

        const uint32_t count = c.count;
        const uint32_t section_crc = chunk_crc.value();
        if (!writePayload(f, crc, &count, sizeof(count)) ||
            !writePayload(f, crc, &section_crc, sizeof(section_crc)) ||
            !writePayload(f, crc, c.pc.data(), n * 8) ||
            !writePayload(f, crc, c.effAddr.data(), n * 8) ||
            !writePayload(f, crc, c.payload.data(), n * 8) ||
            !writePayload(f, crc, c.meta.data(), n) ||
            !writePayload(f, crc, c.dst.data(), n) ||
            !writePayload(f, crc, c.src0.data(), n) ||
            !writePayload(f, crc, c.src1.data(), n) ||
            !writePayload(f, crc, c.src2.data(), n)) {
            return Status::ioError("short write of chunk section");
        }
    }
    return Status::okStatus();
}

/** Read raw bytes, folding them into the payload CRC. */
bool
readPayload(std::FILE *f, Crc32 &crc, void *data, size_t bytes)
{
    if (bytes == 0)
        return true;
    if (std::fread(data, bytes, 1, f) != 1)
        return false;
    crc.update(data, bytes);
    return true;
}

/** Parse the chunked payload into @p buffer. */
Status
readChunks(std::FILE *f, const FileHeader &hdr, uint64_t actual_size,
           TraceBuffer &buffer)
{
    Crc32 payload_crc;
    ChunkPrologue pro{};
    if (actual_size < headerSize + sizeof(pro) ||
        !readPayload(f, payload_crc, &pro, sizeof(pro))) {
        return Status::dataLoss("truncated: file ends inside the chunk "
                                "prologue");
    }
    if (pro.chunkCapacity == 0 ||
        pro.chunkCapacity > maxChunkCapacity) {
        return Status::dataLoss("implausible chunk capacity ",
                                pro.chunkCapacity);
    }
    // Keep the chunk-count and file-size arithmetic below from
    // overflowing (there is at most one chunk per record).
    if (hdr.numInsts > (UINT64_MAX - headerSize - sizeof(pro)) /
                           (bytesPerInst + chunkOverhead)) {
        return Status::dataLoss("implausible record count ",
                                hdr.numInsts);
    }
    const uint64_t expected_chunks =
        hdr.numInsts == 0
            ? 0
            : (hdr.numInsts + pro.chunkCapacity - 1) / pro.chunkCapacity;
    if (pro.numChunks != expected_chunks) {
        return Status::dataLoss("chunk-count mismatch: ", hdr.numInsts,
                                " records at capacity ",
                                pro.chunkCapacity, " need ",
                                expected_chunks, " chunks, header says ",
                                pro.numChunks);
    }

    // Exact-size cross-check before any chunk is parsed (or memory
    // allocated for one): catches truncation, trailing garbage, and a
    // tampered count in one place.
    const uint64_t expected_size = headerSize + sizeof(pro) +
                                   pro.numChunks * chunkOverhead +
                                   hdr.numInsts * bytesPerInst;
    if (actual_size < expected_size) {
        return Status::dataLoss("truncated: ", hdr.numInsts,
                                " records declared but file is ",
                                actual_size, " of ", expected_size,
                                " bytes");
    }
    if (actual_size > expected_size) {
        return Status::dataLoss(
            "record-count mismatch: file has ",
            actual_size - expected_size, " trailing bytes");
    }

    // A file written at the native capacity loads its chunks verbatim
    // (no per-record decode); other capacities re-chunk through
    // append().
    const bool native = pro.chunkCapacity == TraceBuffer::chunkCapacity;
    uint64_t remaining = hdr.numInsts;
    for (uint64_t ci = 0; ci < pro.numChunks; ++ci) {
        const uint64_t expect_count =
            std::min<uint64_t>(remaining, pro.chunkCapacity);
        uint32_t count = 0;
        uint32_t stored_crc = 0;
        if (!readPayload(f, payload_crc, &count, sizeof(count)) ||
            !readPayload(f, payload_crc, &stored_crc,
                         sizeof(stored_crc))) {
            return Status::dataLoss("truncated at chunk ", ci, " of ",
                                    pro.numChunks);
        }
        if (count != expect_count) {
            return Status::dataLoss("chunk ", ci, " count ", count,
                                    " does not match expected ",
                                    expect_count);
        }

        auto chunk = std::make_shared<TraceChunk>(
            buffer.size(),
            native ? TraceBuffer::chunkCapacity : uint32_t(count ? count : 1));
        chunk->pc.resize(count);
        chunk->effAddr.resize(count);
        chunk->payload.resize(count);
        chunk->meta.resize(count);
        chunk->dst.resize(count);
        chunk->src0.resize(count);
        chunk->src1.resize(count);
        chunk->src2.resize(count);
        chunk->count = count;
        if (!readPayload(f, payload_crc, chunk->pc.data(), count * 8) ||
            !readPayload(f, payload_crc, chunk->effAddr.data(),
                         count * 8) ||
            !readPayload(f, payload_crc, chunk->payload.data(),
                         count * 8) ||
            !readPayload(f, payload_crc, chunk->meta.data(), count) ||
            !readPayload(f, payload_crc, chunk->dst.data(), count) ||
            !readPayload(f, payload_crc, chunk->src0.data(), count) ||
            !readPayload(f, payload_crc, chunk->src1.data(), count) ||
            !readPayload(f, payload_crc, chunk->src2.data(), count)) {
            return Status::dataLoss("truncated inside chunk ", ci,
                                    " of ", pro.numChunks);
        }

        Crc32 chunk_crc;
        chunk_crc.update(chunk->pc.data(), count * 8);
        chunk_crc.update(chunk->effAddr.data(), count * 8);
        chunk_crc.update(chunk->payload.data(), count * 8);
        chunk_crc.update(chunk->meta.data(), count);
        chunk_crc.update(chunk->dst.data(), count);
        chunk_crc.update(chunk->src0.data(), count);
        chunk_crc.update(chunk->src1.data(), count);
        chunk_crc.update(chunk->src2.data(), count);
        if (chunk_crc.value() != stored_crc) {
            return Status::dataLoss("chunk ", ci,
                                    " CRC mismatch (stored ", stored_crc,
                                    ", computed ", chunk_crc.value(),
                                    "): chunk columns are corrupt");
        }

        for (uint32_t i = 0; i < count; ++i) {
            Status meta_status =
                checkMetaByte(chunk->meta[i], chunk->base + i);
            if (!meta_status.ok())
                return meta_status;
        }

        if (native) {
            buffer.appendChunk(std::move(chunk));
        } else {
            for (uint32_t i = 0; i < count; ++i)
                buffer.append(chunk->get(i));
        }
        remaining -= expect_count;
    }

    if (payload_crc.value() != hdr.payloadCrc) {
        return Status::dataLoss(
            "payload CRC mismatch (stored ", hdr.payloadCrc,
            ", computed ", payload_crc.value(),
            "): trace payload is corrupt");
    }
    return Status::okStatus();
}

} // namespace

Status
writeTrace(const std::string &path, const TraceBuffer &buffer)
{
    // Write to a sibling temp file and rename into place so a crashed
    // or failed write can never leave a half-written trace at `path`.
    const std::string tmp_path =
        path + ".tmp." + std::to_string(::getpid());
    FilePtr f(std::fopen(tmp_path.c_str(), "wb"));
    if (!f) {
        return Status::ioError("cannot create trace file '", tmp_path,
                               "': ", std::strerror(errno));
    }

    auto fail = [&](Status status) {
        f.reset();
        std::remove(tmp_path.c_str());
        return std::move(status).withContext("writing '", path, "'");
    };

    // The payload CRC is only known after streaming the payload, so
    // write a placeholder header first and patch it at the end; the
    // rename makes the intermediate state invisible to readers.
    FileHeader hdr{};
    std::memcpy(hdr.magic, traceMagic, sizeof(traceMagic));
    hdr.version = traceFormatVersion;
    hdr.numInsts = buffer.size();
    std::strncpy(hdr.name, buffer.name().c_str(), sizeof(hdr.name) - 1);
    if (std::fwrite(&hdr, headerSize, 1, f.get()) != 1)
        return fail(Status::ioError("short write of trace header"));

    Crc32 payload_crc;
    Status payload_status = writeChunks(f.get(), payload_crc, buffer);
    if (!payload_status.ok())
        return fail(std::move(payload_status));

    hdr.payloadCrc = payload_crc.value();
    hdr.headerCrc = Crc32::compute(&hdr, headerCrcSpan);
    if (std::fseek(f.get(), 0, SEEK_SET) != 0 ||
        std::fwrite(&hdr, headerSize, 1, f.get()) != 1) {
        return fail(Status::ioError("cannot finalise trace header"));
    }

    if (std::fflush(f.get()) != 0)
        return fail(Status::ioError("flush failed: ",
                                    std::strerror(errno)));
    f.reset(); // close before rename
    if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
        Status st = Status::ioError("cannot rename '", tmp_path,
                                    "' into place: ",
                                    std::strerror(errno));
        std::remove(tmp_path.c_str());
        return std::move(st).withContext("writing '", path, "'");
    }
    return Status::okStatus();
}

Expected<TraceBuffer>
readTrace(const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f) {
        return Status::notFound("cannot open trace file '", path, "': ",
                                std::strerror(errno));
    }

    auto corrupt = [&](Status status) {
        return std::move(status).withContext("reading '", path, "'");
    };

    MLPSIM_ASSIGN_OR_RETURN(const uint64_t actual_size,
                            fileSize(f.get(), path));

    // Magic and version first, so a foreign or legacy file is named
    // as such rather than as a corrupt header.
    uint8_t raw[headerSize];
    if (actual_size < 8 ||
        std::fread(raw, 8, 1, f.get()) != 1) {
        return corrupt(Status::dataLoss(
            "file is ", actual_size,
            " bytes, too short for a trace header"));
    }
    if (std::memcmp(raw, traceMagic, sizeof(traceMagic)) != 0)
        return corrupt(Status::dataLoss("not an mlpsim trace file"));

    uint32_t version;
    std::memcpy(&version, raw + sizeof(traceMagic), sizeof(version));
    if (version != traceFormatVersion) {
        return corrupt(Status::invalidArgument(
            "unsupported format version ", version, " (expected ",
            traceFormatVersion, ")"));
    }

    if (actual_size < headerSize ||
        std::fread(raw + 8, headerSize - 8, 1, f.get()) != 1) {
        return corrupt(Status::dataLoss(
            "truncated header: file is ", actual_size,
            " bytes, header needs ", headerSize));
    }

    FileHeader hdr{};
    std::memcpy(&hdr, raw, headerSize);

    const uint32_t computed = Crc32::compute(raw, headerCrcSpan);
    if (computed != hdr.headerCrc) {
        return corrupt(Status::dataLoss(
            "header CRC mismatch (stored ", hdr.headerCrc,
            ", computed ", computed, ")"));
    }

    // Bounded name read: the field must contain its terminator.
    if (std::memchr(hdr.name, '\0', sizeof(hdr.name)) == nullptr) {
        return corrupt(Status::dataLoss(
            "trace name field is not NUL-terminated (oversized name)"));
    }

    TraceBuffer buffer{std::string(hdr.name)};
    Status payload_status = readChunks(f.get(), hdr, actual_size, buffer);
    if (!payload_status.ok())
        return corrupt(std::move(payload_status));
    return buffer;
}

} // namespace mlpsim::trace
