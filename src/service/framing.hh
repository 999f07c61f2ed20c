/**
 * @file
 * Length-prefixed message framing for the mlpsimd wire protocol.
 *
 * Every message — request, response, progress event, control — is one
 * UTF-8 JSON document sent as a single frame:
 *
 *   [u32-LE payload length][payload bytes]
 *
 * over an ordinary byte stream (a pipe pair in --stdio mode, an
 * AF_UNIX stream socket in --socket mode). The length prefix is the
 * entire protocol: no delimiters inside payloads to escape, no
 * resynchronisation states — a reader is either at a frame boundary
 * or mid-frame, and EOF mid-frame is a hard DataLoss error while EOF
 * at a boundary is a clean shutdown.
 *
 * Frames are capped at 16 MiB. A length word above the cap means the
 * peer is not speaking this protocol (e.g. someone piped a binary file
 * in); failing fast beats attempting a 4 GB allocation.
 *
 * FrameWriter serialises concurrent writers with a mutex so progress
 * events emitted from sweep job threads interleave with responses at
 * frame granularity, never mid-frame.
 */
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "util/status.hh"

namespace mlpsim::service {

/** Upper bound on a single frame's payload, in bytes. */
constexpr uint32_t maxFrameBytes = 16u << 20;

/**
 * Blocking frame reader over a POSIX fd. Not thread-safe: one reader
 * per stream (the protocol is strictly client-drives-requests).
 */
class FrameReader
{
  public:
    explicit FrameReader(int fd) : fd(fd) {}

    /**
     * Read one complete frame into @p payload. Returns true on a
     * frame, false on clean EOF at a frame boundary. EOF inside a
     * frame, an over-cap length word, or a read(2) failure is an
     * error.
     */
    Expected<bool> read(std::string *payload);

    /**
     * True if at least one byte is readable right now (poll with a
     * zero timeout). Used by the daemon to drain a burst of queued
     * requests into one batch without blocking the batch on a quiet
     * client.
     */
    bool pending() const;

  private:
    int fd;
};

/**
 * Frame writer over a POSIX fd. write() is atomic at frame
 * granularity (internally locked), so response and event frames from
 * different threads never interleave bytes.
 */
class FrameWriter
{
  public:
    explicit FrameWriter(int fd) : fd(fd) {}

    Status write(std::string_view payload);

  private:
    int fd;
    std::mutex mutex;
};

} // namespace mlpsim::service
