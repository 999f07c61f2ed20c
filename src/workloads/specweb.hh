/**
 * @file
 * Synthetic SPECweb99-like web-server workload.
 *
 * Substitutes for the paper's SPECweb99 trace (its Table 1 row: L2
 * miss rate ~0.09 per 100 instructions yet MLP ~1.25 thanks to
 * extremely clustered misses, a significant number of *useful software
 * prefetches*, and 10-13% of epoch triggers being instruction-fetch
 * misses).
 *
 * One request: parse headers (hot compute + branches), hash-table
 * lookup of the file-cache entry (dependent hops), then a send loop
 * that streams the file 64B line by line -- software-prefetching a
 * configurable number of lines ahead and copying each line with eight
 * loads and a store. File popularity is Zipf: the hot head of the file
 * set lives in the L2 (requests with no data misses at all), while the
 * cold tail produces long bursts of sequential, mutually independent
 * line misses covered by the prefetches.
 */
#pragma once

#include "workloads/workload_base.hh"

namespace mlpsim::workloads {

/** Tunable structure of the SPECweb-like workload. */
struct SpecWebParams
{
    uint64_t seed = 0x3EB;

    unsigned numFiles = 16384;
    unsigned minFileLines = 6;    //!< file size range, 64B lines
    unsigned maxFileLines = 12;
    double fileSkew = 1.7;       //!< Zipf skew of file popularity
    unsigned prefetchDistance = 6; //!< lines prefetched ahead
    unsigned prefetchEvery = 3;    //!< prefetch 1 of every N lines
    unsigned computePerLine = 32;  //!< checksum/TCP work per line
    unsigned parseCompute = 400;  //!< header parsing per request
    unsigned hotFunctions = 56;
    unsigned coldFunctions = 600;  //!< logging/CGI tail (Zipf)
    double codeSkew = 1.25;
    unsigned callsPerRequest = 8;
    double valueStability = 0.5;
};

/** Deterministic SPECweb99-like trace generator. */
class SpecWebWorkload : public WorkloadBase
{
  public:
    SpecWebWorkload();
    explicit SpecWebWorkload(const SpecWebParams &params);

  protected:
    void generate() override;

  private:
    void emitParse();
    void emitHelperCall();
    uint64_t emitLookup(uint64_t file_id, Reg entry_reg);
    void emitSendLoop(uint64_t file_base, unsigned file_lines,
                      Reg entry_reg);

    uint64_t fileBase(uint64_t file_id) const;
    unsigned fileLines(uint64_t file_id) const;

    SpecWebParams prm;
    uint64_t requestCounter = 0;
};

} // namespace mlpsim::workloads
