/**
 * @file
 * Micro-workloads with analytically known MLP behaviour. Used by the
 * test suite to pin down engine semantics and by the throughput
 * benchmarks.
 */
#pragma once

#include "workloads/workload_base.hh"

namespace mlpsim::workloads {

/**
 * A single dependent pointer chase over a region far larger than the
 * L2: every load misses and depends on the previous one, so MLP -> 1
 * for any machine.
 */
class PointerChaseWorkload : public WorkloadBase
{
  public:
    struct Params
    {
        uint64_t footprintBytes = 256ULL << 20;
        unsigned padAluPerLoad = 4; //!< on-chip work between hops
        uint64_t seed = 1;
    };

    PointerChaseWorkload();
    explicit PointerChaseWorkload(const Params &params);

  protected:
    void generate() override;

  private:
    Params prm;
    uint64_t cursor = 0;
};

/**
 * K independent strided miss streams interleaved: every load misses
 * and is independent of the others, so a machine whose window spans
 * one interleave group achieves MLP ~= K.
 */
class IndependentStreamsWorkload : public WorkloadBase
{
  public:
    struct Params
    {
        unsigned streams = 4;
        uint64_t footprintBytes = 64ULL << 20; //!< per stream
        unsigned padAluPerLoad = 4;
        uint64_t seed = 2;
    };

    IndependentStreamsWorkload();
    explicit IndependentStreamsWorkload(const Params &params);

  protected:
    void generate() override;

  private:
    Params prm;
    std::vector<uint64_t> cursors;
};

/**
 * Independent miss streams with an atomic between every group:
 * serializing instructions cap MLP at ~1 for configs A-D but not for
 * config E or runahead.
 */
class SerializingStormWorkload : public WorkloadBase
{
  public:
    struct Params
    {
        unsigned missesBetweenAtomics = 4;
        uint64_t footprintBytes = 64ULL << 20;
        unsigned padAluPerLoad = 4;
        uint64_t seed = 3;
    };

    SerializingStormWorkload();
    explicit SerializingStormWorkload(const Params &params);

  protected:
    void generate() override;

  private:
    Params prm;
    uint64_t cursor = 0;
};

/**
 * A streaming copy loop with software prefetches issued a configurable
 * distance ahead; exercises useful-prefetch accounting.
 */
class PrefetchedStreamWorkload : public WorkloadBase
{
  public:
    struct Params
    {
        unsigned prefetchDistanceLines = 8;
        uint64_t footprintBytes = 256ULL << 20;
        uint64_t seed = 4;
    };

    PrefetchedStreamWorkload();
    explicit PrefetchedStreamWorkload(const Params &params);

  protected:
    void generate() override;

  private:
    Params prm;
    uint64_t cursor = 0;
};

} // namespace mlpsim::workloads
