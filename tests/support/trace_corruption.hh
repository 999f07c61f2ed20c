/**
 * @file
 * Byte-level trace-file manipulation for the fault-injection harness
 * and the trace I/O tests.
 *
 * The on-disk layout (trace/trace_io.hh) is duplicated here
 * *deliberately* rather than shared with trace_io.cc: if the
 * production layout ever drifts, these tests fail instead of silently
 * testing the new layout against itself.
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "util/crc32.hh"

namespace mlpsim::test {

/** Header: magic, version, count, name, payload CRC, header CRC. */
constexpr size_t headerSize = 88;

constexpr size_t payloadCrcOffset = 80;
constexpr size_t headerCrcOffset = 84;
constexpr size_t nameOffset = 16;
constexpr size_t countOffset = 8;
constexpr size_t versionOffset = 4;

inline std::vector<uint8_t>
readFileBytes(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return {};
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<uint8_t> bytes(size_t(size < 0 ? 0 : size));
    if (!bytes.empty() &&
        std::fread(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
        bytes.clear();
    }
    std::fclose(f);
    return bytes;
}

inline void
writeFileBytes(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return;
    if (!bytes.empty())
        std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
}

/** Flip one bit of an in-memory file image. */
inline void
flipBit(std::vector<uint8_t> &bytes, size_t byte_index, unsigned bit)
{
    bytes.at(byte_index) ^= uint8_t(1u << bit);
}

/**
 * Recompute and store the header CRC after editing header bytes,
 * so a test can target a *later* check (version, name, count…)
 * without tripping the checksum first.
 */
inline void
fixHeaderCrc(std::vector<uint8_t> &bytes)
{
    const uint32_t crc = Crc32::compute(bytes.data(), headerCrcOffset);
    std::memcpy(bytes.data() + headerCrcOffset, &crc, sizeof(crc));
}

/** v3 payload prologue: u64 chunkCapacity + u64 numChunks. */
constexpr size_t v3PrologueSize = 16;
/** Per-chunk section header: u32 count + u32 chunkCrc. */
constexpr size_t v3ChunkHeaderSize = 8;
/** Column bytes per instruction: pc/effAddr/payload + 5 byte columns. */
constexpr size_t v3BytesPerInst = 3 * 8 + 5;

/** Offset of the first chunk section (test images are single-chunk). */
constexpr size_t v3ChunkOffset = headerSize + v3PrologueSize;

/** Total bytes of a chunk section holding @p count instructions. */
inline size_t
v3ChunkSectionSize(size_t count)
{
    return v3ChunkHeaderSize + count * v3BytesPerInst;
}

/** Offset of the meta column inside a single-chunk v3 image. */
inline size_t
v3MetaOffset(size_t count)
{
    return v3ChunkOffset + v3ChunkHeaderSize + 3 * 8 * count;
}

/**
 * Recompute the chunk, payload, and header CRCs of a *single-chunk*
 * v3 image after editing column bytes, so a test can target a later
 * check (enum range, counts…) without tripping a checksum first.
 */
inline void
fixV3Crcs(std::vector<uint8_t> &bytes, size_t count)
{
    const size_t columns_off = v3ChunkOffset + v3ChunkHeaderSize;
    const uint32_t chunk_crc = Crc32::compute(
        bytes.data() + columns_off, count * v3BytesPerInst);
    std::memcpy(bytes.data() + v3ChunkOffset + 4, &chunk_crc,
                sizeof(chunk_crc));
    const uint32_t payload_crc = Crc32::compute(
        bytes.data() + headerSize, bytes.size() - headerSize);
    std::memcpy(bytes.data() + payloadCrcOffset, &payload_crc,
                sizeof(payload_crc));
    fixHeaderCrc(bytes);
}

} // namespace mlpsim::test
