/**
 * @file
 * Binary trace file format, version 3 (chunked structure-of-arrays).
 *
 * The format exists so expensive synthetic traces can be generated
 * once and replayed from disk, and so external tools can feed real
 * traces into mlpsim. Because those files cross process and machine
 * boundaries, the reader treats them as untrusted input: every
 * structural defect — truncation, bit rot, tampering, a buggy writer —
 * is reported as a descriptive Status error, never an abort and never
 * silent garbage.
 *
 * Header (all fields little-endian, no padding):
 *
 *   offset size  field
 *   ------ ----  ------------------------------------------------
 *        0    4  magic "MLPT"
 *        4    4  format version (3)
 *        8    8  record count (instructions)
 *       16   64  trace name, NUL-terminated and NUL-padded
 *       80    4  payload CRC-32 (IEEE, over all payload bytes)
 *       84    4  header CRC-32 (IEEE, over bytes [0, 84))
 *
 * Payload (offset 88): a 16-byte prologue [u64 chunkCapacity]
 * [u64 numChunks], then one section per chunk:
 *
 *   [u32 count][u32 chunkCrc]
 *   [count × u64 pc][count × u64 effAddr][count × u64 payload]
 *   [count × u8 meta][count × u8 dst][count × u8 src0]
 *   [count × u8 src1][count × u8 src2]
 *
 * i.e. the TraceChunk columns verbatim (trace_chunk.hh), 29 bytes per
 * instruction, loadable straight into the chunk the simulators
 * consume with no per-record decode. chunkCrc covers that chunk's
 * column bytes, so corruption is localised to a chunk; the header's
 * payload CRC additionally covers the whole payload region (prologue
 * and chunk sections), so every single-bit flip anywhere in the file
 * is detected. Every chunk except the last must hold exactly
 * chunkCapacity instructions, so the file size is fully determined by
 * the header and truncation or trailing garbage is diagnosed before
 * any payload is parsed.
 *
 * Integrity checks performed by readTrace():
 *  - magic recognised and version 3 (the earlier array-of-structs
 *    versions 1 and 2 are rejected as unsupported);
 *  - header CRC — any corrupted header byte is detected;
 *  - trace name must be NUL-terminated within its 64-byte field;
 *  - chunk capacity and chunk count consistent with the record count;
 *  - exact file-size cross-check against the declared counts, so
 *    truncation and trailing garbage are both diagnosed up front;
 *  - per-chunk CRC;
 *  - range checks on the packed meta byte (class and branch-kind
 *    enums, and its unused high bit);
 *  - payload CRC — any corrupted payload byte is detected.
 *
 * writeTrace() writes to a temporary file in the same directory and
 * atomically rename(2)s it into place, so an interrupted or failed
 * write can never leave a half-written trace at the target path.
 */
#pragma once

#include <string>

#include "trace/trace_buffer.hh"
#include "util/status.hh"

namespace mlpsim::trace {

/** The version writeTrace() writes and readTrace() accepts. */
constexpr uint32_t traceFormatVersion = 3;

/**
 * Write @p buffer to @p path (atomic temp-file-and-rename). Returns a
 * Status describing any I/O failure; on failure the target path is
 * left untouched.
 */
Status writeTrace(const std::string &path, const TraceBuffer &buffer);

/**
 * Read a trace file, running the full integrity checklist above.
 * Corrupt or truncated input yields a DataLoss/InvalidArgument Status
 * naming the file and the defect.
 */
Expected<TraceBuffer> readTrace(const std::string &path);

} // namespace mlpsim::trace
