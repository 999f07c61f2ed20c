/**
 * @file
 * Synthetic OLTP database workload.
 *
 * Substitutes for the paper's proprietary database trace (its Table 1
 * row: L2 miss rate ~0.84 per 100 instructions, MLP ~1.33-1.38 at the
 * default 64-entry window, strong miss clustering, 12-18% of epoch
 * triggers being instruction-fetch misses).
 *
 * Structure of one transaction:
 *   1. begin: lock acquire (CASA on a hot lock stripe), txn setup;
 *   2. a handful of index probes, each a B-tree descent whose
 *      node-to-node hops are true dependent load chains and whose
 *      leaf/row lines mostly miss the 2MB L2; some probes depend on a
 *      value produced by the previous probe (rowid lookups);
 *   3. row access + predicate evaluation with data-dependent branches
 *      (mispredicted branches dependent on missing loads);
 *   4. row update, sequential log append;
 *   5. commit: membar + lock release.
 *
 * The instruction stream walks a multi-megabyte synthetic code
 * segment with Zipf-skewed function popularity, giving the workload a
 * realistic instruction footprint that contends with data in the
 * shared L2.
 */
#pragma once

#include "workloads/workload_base.hh"

namespace mlpsim::workloads {

/** Tunable structure of the database workload. */
struct DatabaseParams
{
    uint64_t seed = 0xDB;

    // --- data footprint ---
    unsigned btreeLevels = 4;       //!< root..leaf
    unsigned btreeFanout = 48;      //!< children per node
    uint64_t rowRegionBytes = 1536ULL << 20;
    uint64_t hotRegionBytes = 192 * 1024; //!< catalog/metadata (hot)

    // --- transaction shape ---
    unsigned probesPerTxn = 3;      //!< independent index probes
    double probeDependentFrac = 0.85; //!< probes chained on prior row
    unsigned rowLinesTouched = 2;   //!< independent row lines per probe
    double dependentDetailFrac = 0.5; //!< detail chased before the rows
    double predicateSkew = 0.96;    //!< taken bias of data predicates
    unsigned interProbeCompute = 36; //!< on-chip insts between probes
    unsigned txnOverheadCompute = 440; //!< parse/plan/log on-chip work
    double keySkew = 0.7;           //!< Zipf skew of key popularity

    // --- code footprint ---
    unsigned hotFunctions = 48;     //!< dispatcher/txn management
    unsigned coldFunctions = 3500;  //!< operators/utilities (Zipf)
    double codeSkew = 1.25;         //!< Zipf skew of function popularity
    unsigned callsPerTxn = 10;      //!< cold-ish function calls per txn

    // --- value behaviour (for value prediction) ---
    double fieldValueStability = 0.70; //!< P(field rereads same value)
};

/** Deterministic OLTP-like trace generator. */
class DatabaseWorkload : public WorkloadBase
{
  public:
    DatabaseWorkload();
    explicit DatabaseWorkload(const DatabaseParams &params);

  protected:
    void generate() override;

  private:
    void emitTxnBegin();
    void emitTxnEnd();
    /** One index probe; returns the register holding the row value. */
    Reg emitIndexProbe(unsigned probe_index, Reg chain_input);
    void emitRowAccess(unsigned probe_index, uint64_t row_addr,
                       Reg row_reg);
    void emitHelperCall();
    void emitLogAppend();

    uint64_t nodeAddr(unsigned level, uint64_t index) const;
    uint64_t levelNodes(unsigned level) const;

    DatabaseParams prm;
    uint64_t logCursor = 0;
    uint64_t txnCounter = 0;
};

} // namespace mlpsim::workloads
