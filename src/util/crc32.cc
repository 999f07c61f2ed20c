#include "crc32.hh"

#include <array>

namespace mlpsim {

namespace {

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

/**
 * Slicing-by-8 tables: tables[0] is the classic byte-at-a-time table;
 * tables[k][b] is the CRC contribution of byte b followed by k zero
 * bytes, so eight table lookups fold eight input bytes at once.
 */
constexpr CrcTables
makeCrcTables()
{
    CrcTables tables{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        tables[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i)
        for (size_t k = 1; k < tables.size(); ++k)
            tables[k][i] = tables[0][tables[k - 1][i] & 0xFFu] ^
                           (tables[k - 1][i] >> 8);
    return tables;
}

constexpr CrcTables crcTables = makeCrcTables();

/** Four little-endian bytes as a word, whatever the host byte order
 *  and alignment. */
inline uint32_t
loadLe32(const uint8_t *p)
{
    return uint32_t(p[0]) | uint32_t(p[1]) << 8 | uint32_t(p[2]) << 16 |
           uint32_t(p[3]) << 24;
}

} // namespace

void
Crc32::update(const void *data, size_t len)
{
    const auto *bytes = static_cast<const uint8_t *>(data);
    const auto &t = crcTables;
    uint32_t c = state;
    for (; len >= 8; bytes += 8, len -= 8) {
        const uint32_t lo = c ^ loadLe32(bytes);
        const uint32_t hi = loadLe32(bytes + 4);
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; len > 0; ++bytes, --len)
        c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
    state = c;
}

} // namespace mlpsim
