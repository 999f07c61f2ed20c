/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic choices in mlpsim (workload generators, synthetic data
 * structures) flow through Rng so that every trace is exactly
 * reproducible from a 64-bit seed. The generator is xoshiro256**,
 * seeded through SplitMix64 as its authors recommend.
 */
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace mlpsim {

/** Stateless 64-bit mixer; used for seeding and hashing. */
constexpr uint64_t
splitMix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * 64-bit FNV-1a: the stable string hash behind workload seeds and the
 * service's content hashes (each feeds it through splitMix64 to spread
 * its low entropy across all 64 bits).
 */
constexpr uint64_t
fnv1a64(std::string_view text)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/**
 * xoshiro256** pseudo-random generator.
 *
 * Satisfies UniformRandomBitGenerator so it can also feed <random>
 * distributions, though mlpsim mostly uses the convenience members.
 */
class Rng
{
  public:
    using result_type = uint64_t;

    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

    /** Reset the stream to a deterministic function of @p seed. */
    void
    reseed(uint64_t seed)
    {
        uint64_t x = seed;
        for (auto &word : state) {
            x = splitMix64(x);
            word = x;
        }
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    uint64_t
    operator()()
    {
        const uint64_t result = rotl(state[1] * 5, 7) * 9;
        const uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /** Uniform in [0, bound). @pre bound > 0. */
    uint64_t
    below(uint64_t bound)
    {
        // Lemire's multiply-shift rejection-free approximation is fine
        // here: tiny bias at 64-bit range is irrelevant for workload
        // synthesis.
        return static_cast<uint64_t>(
            (static_cast<__uint128_t>((*this)()) * bound) >> 64);
    }

    /** Uniform in [lo, hi] inclusive. @pre lo <= hi. */
    uint64_t
    range(uint64_t lo, uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability @p p. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Geometric-ish positive integer with mean approximately @p mean.
     * Used for synthesizing bursty inter-event distances.
     */
    uint64_t
    geometric(double mean)
    {
        if (mean <= 1.0)
            return 1;
        const double p = 1.0 / mean;
        uint64_t n = 1;
        while (!chance(p) && n < static_cast<uint64_t>(mean * 64.0))
            ++n;
        return n;
    }

    /**
     * Zipf-like choice over [0, n): index i drawn with weight
     * proportional to 1/(i+1)^s, approximated by the rejection-free
     * inverse-power transform. Used to give workloads hot/cold skew.
     */
    uint64_t
    zipf(uint64_t n, double s = 1.0)
    {
        // Inverse transform of the continuous bounded Pareto; cheap and
        // close enough for footprint skew purposes.
        const double u = uniform();
        const double exp = 1.0 - s;
        double v;
        if (exp > 1e-9 || exp < -1e-9) {
            const double hi = static_cast<double>(n);
            v = (u * (powFast(hi, exp) - 1.0) + 1.0);
            v = powFast(v, 1.0 / exp) - 1.0;
        } else {
            v = powFast(static_cast<double>(n), u) - 1.0;
        }
        auto idx = static_cast<uint64_t>(v);
        return idx >= n ? n - 1 : idx;
    }

  private:
    static constexpr uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    static double powFast(double base, double e);

    std::array<uint64_t, 4> state;
};

} // namespace mlpsim
