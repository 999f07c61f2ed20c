/**
 * @file
 * Dense bit-vector and packed small-enum vector.
 *
 * The per-trace annotation sidecars (miss flags, branch mispredicts,
 * value-prediction outcomes) are consulted once per replayed
 * instruction by every simulator, so their footprint is pure cache
 * pressure: one byte per flag per instruction adds up to several
 * megabytes per workload that compete with the instruction stream
 * itself. These containers store one bit (or a few bits) per element
 * in 64-bit words — an 8-32x density improvement — while keeping the
 * vector<uint8_t>-style surface (`assign(n, v)`, `v[i]`, `v[i] = x`)
 * the annotators and tests already use.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mlpsim::util {

/** One bit per element, vector<bool>-like but with a stable API. */
class BitVector
{
  public:
    /** Writable reference to one bit (`v[i] = 1` support). */
    class Ref
    {
      public:
        Ref(uint64_t *word, uint64_t mask) : w(word), m(mask) {}

        operator bool() const { return (*w & m) != 0; }

        Ref &
        operator=(bool value)
        {
            if (value)
                *w |= m;
            else
                *w &= ~m;
            return *this;
        }

      private:
        uint64_t *w;
        uint64_t m;
    };

    void
    assign(size_t count, bool value)
    {
        n = count;
        words.assign((count + 63) / 64, value ? ~uint64_t(0) : 0);
    }

    /**
     * Grow to @p count bits, preserving existing bits; new bits are
     * zero. The chunk-incremental annotation builders extend their
     * planes one trace chunk at a time with this (the total length is
     * unknown while the trace is still streaming).
     */
    void
    resize(size_t count)
    {
        words.resize((count + 63) / 64, 0);
        n = count;
    }

    size_t size() const { return n; }
    bool empty() const { return n == 0; }

    bool
    test(size_t i) const
    {
        return (words[i >> 6] >> (i & 63)) & 1;
    }

    void set(size_t i) { words[i >> 6] |= uint64_t(1) << (i & 63); }
    void reset(size_t i) { words[i >> 6] &= ~(uint64_t(1) << (i & 63)); }

    /**
     * Raw storage word @p w: bits [64w, 64w + 64), element 64w in bit
     * 0. Bits at or past size() are unspecified (assign(n, true) sets
     * them), so word-at-a-time scans must bound their own range.
     */
    uint64_t word(size_t w) const { return words[w]; }

    bool operator[](size_t i) const { return test(i); }
    Ref operator[](size_t i)
    {
        return Ref(&words[i >> 6], uint64_t(1) << (i & 63));
    }

  private:
    std::vector<uint64_t> words;
    size_t n = 0;
};

/**
 * Fixed-width packed vector of a small enum (Bits per element, 64/Bits
 * elements per word). Element values must fit in Bits bits.
 */
template <typename Enum, unsigned Bits>
class PackedEnumVector
{
    static_assert(Bits > 0 && 64 % Bits == 0, "Bits must divide 64");
    static constexpr uint64_t elemMask = (uint64_t(1) << Bits) - 1;
    static constexpr unsigned perWord = 64 / Bits;

  public:
    /** Writable reference to one element (`v[i] = e` support). */
    class Ref
    {
      public:
        Ref(uint64_t *word, unsigned shift) : w(word), sh(shift) {}

        operator Enum() const
        {
            return static_cast<Enum>((*w >> sh) & elemMask);
        }

        Ref &
        operator=(Enum value)
        {
            *w = (*w & ~(elemMask << sh)) |
                 ((static_cast<uint64_t>(value) & elemMask) << sh);
            return *this;
        }

      private:
        uint64_t *w;
        unsigned sh;
    };

    void
    assign(size_t count, Enum value)
    {
        n = count;
        uint64_t fill = 0;
        for (unsigned e = 0; e < perWord; ++e)
            fill |= (static_cast<uint64_t>(value) & elemMask) << (e * Bits);
        words.assign((count + perWord - 1) / perWord, fill);
    }

    /** Grow to @p count, preserving contents; new elements are 0. */
    void
    resize(size_t count)
    {
        words.resize((count + perWord - 1) / perWord, 0);
        n = count;
    }

    size_t size() const { return n; }
    bool empty() const { return n == 0; }

    Enum
    operator[](size_t i) const
    {
        return static_cast<Enum>(
            (words[i / perWord] >> (i % perWord * Bits)) & elemMask);
    }

    Ref operator[](size_t i)
    {
        return Ref(&words[i / perWord], unsigned(i % perWord * Bits));
    }

  private:
    std::vector<uint64_t> words;
    size_t n = 0;
};

} // namespace mlpsim::util
