/**
 * @file CRC-32 (IEEE 802.3) against published check values, and the
 * slicing-by-8 update against a byte-at-a-time reference.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/crc32.hh"
#include "util/rng.hh"

namespace mlpsim::test {

namespace {

/** The textbook bitwise CRC-32: one polynomial step per input bit. */
uint32_t
referenceCrc(uint32_t crc, const uint8_t *data, size_t len)
{
    uint32_t c = crc ^ 0xFFFFFFFFu;
    for (size_t i = 0; i < len; ++i) {
        c ^= data[i];
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
}

} // namespace

TEST(Crc32, PublishedCheckValues)
{
    // The standard check value for poly 0xEDB88320 (zlib-compatible).
    EXPECT_EQ(Crc32::compute("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(Crc32::compute("", 0), 0x00000000u);
    EXPECT_EQ(Crc32::compute("a", 1), 0xE8B7BE43u);
}

TEST(Crc32, IncrementalEqualsOneShot)
{
    const char data[] = "The quick brown fox jumps over the lazy dog";
    const size_t len = std::strlen(data);
    Crc32 crc;
    for (size_t i = 0; i < len; ++i)
        crc.update(data + i, 1);
    EXPECT_EQ(crc.value(), Crc32::compute(data, len));
}

TEST(Crc32, ResetStartsOver)
{
    Crc32 crc;
    crc.update("garbage", 7);
    crc.reset();
    crc.update("123456789", 9);
    EXPECT_EQ(crc.value(), 0xCBF43926u);
}

TEST(Crc32, SensitiveToEverySingleBitFlip)
{
    std::vector<uint8_t> data(64);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = uint8_t(i * 7 + 1);
    const uint32_t base = Crc32::compute(data.data(), data.size());
    for (size_t byte = 0; byte < data.size(); ++byte) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            data[byte] ^= uint8_t(1u << bit);
            EXPECT_NE(Crc32::compute(data.data(), data.size()), base)
                << "flip at byte " << byte << " bit " << bit;
            data[byte] ^= uint8_t(1u << bit);
        }
    }
}

TEST(Crc32, MatchesBytewiseReferenceAtAnyLengthAndAlignment)
{
    Rng rng(0xC0FFEE);
    std::vector<uint8_t> data(4096 + 8);
    for (auto &b : data)
        b = uint8_t(rng());
    for (size_t offset = 0; offset < 8; ++offset) {
        for (size_t len = 0; len <= 64; ++len) {
            EXPECT_EQ(Crc32::compute(data.data() + offset, len),
                      referenceCrc(0, data.data() + offset, len))
                << "offset " << offset << " length " << len;
        }
    }
    for (int trial = 0; trial < 200; ++trial) {
        const size_t offset = rng() % 8;
        const size_t len = rng() % (data.size() - offset + 1);
        EXPECT_EQ(Crc32::compute(data.data() + offset, len),
                  referenceCrc(0, data.data() + offset, len))
            << "offset " << offset << " length " << len;
    }
}

TEST(Crc32, SplitUpdatesMatchTheReferenceAcrossTheEightByteStride)
{
    Rng rng(17);
    std::vector<uint8_t> data(1000);
    for (auto &b : data)
        b = uint8_t(rng());
    const uint32_t whole = referenceCrc(0, data.data(), data.size());
    for (int trial = 0; trial < 100; ++trial) {
        Crc32 crc;
        size_t pos = 0;
        while (pos < data.size()) {
            const size_t step =
                std::min<size_t>(rng() % 23, data.size() - pos);
            crc.update(data.data() + pos, step);
            pos += step;
        }
        EXPECT_EQ(crc.value(), whole) << "trial " << trial;
    }
}

} // namespace mlpsim::test
