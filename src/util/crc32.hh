/**
 * @file
 * Streaming CRC-32 (IEEE 802.3, polynomial 0xEDB88320) used to
 * checksum record-log frames (util/recordio.hh). Matches zlib's
 * crc32() bit-for-bit, so any standard CRC library can check them.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace mlpsim {

/** Incremental CRC-32 accumulator. */
class Crc32
{
  public:
    /** Fold @p len bytes at @p data into the running checksum. */
    void update(const void *data, size_t len);

    /** Finalised checksum of everything update()d so far. */
    uint32_t value() const { return state ^ 0xFFFFFFFFu; }

    void reset() { state = 0xFFFFFFFFu; }

    /** One-shot helper. */
    static uint32_t
    compute(const void *data, size_t len)
    {
        Crc32 crc;
        crc.update(data, len);
        return crc.value();
    }

  private:
    uint32_t state = 0xFFFFFFFFu;
};

} // namespace mlpsim
