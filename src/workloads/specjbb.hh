/**
 * @file
 * Synthetic SPECjbb2000-like middle-tier Java workload.
 *
 * Substitutes for the paper's SPECjbb2000 trace (its Table 1 row: L2
 * miss rate ~0.19 per 100 instructions, MLP ~1.13 at the default
 * window, negligible instruction-side misses, and a high density of
 * CASA serializing instructions -- more than 0.6% of the dynamic
 * stream -- from Java object locking, which the paper identifies as
 * the dominant MLP impediment at large windows).
 *
 * One "operation" models warehouse order processing: allocate order
 * objects (bump-pointer allocation with initialising stores), lock and
 * touch a set of warehouse/item/customer objects through an object
 * table (one dependent hop each), walk a B-tree-ish district index,
 * and update histories. The heap is moderate (tens of MB), the hot
 * code segment small enough to live in the L2.
 */
#pragma once

#include "workloads/workload_base.hh"

namespace mlpsim::workloads {

/** Tunable structure of the SPECjbb-like workload. */
struct SpecJbbParams
{
    uint64_t seed = 0x1BB;

    uint64_t heapBytes = 80ULL << 20;   //!< old-generation objects
    uint64_t hotBytes = 320 * 1024;     //!< young gen / hot tables
    unsigned objectsPerOp = 5;          //!< objects touched per op
    double coldOpFrac = 0.26;           //!< P(op works the cold heap)
    double coldObjectFrac = 0.60;       //!< P(cold object | cold op)
    double hotOpColdFrac = 0.02;        //!< P(cold object | hot op)
    unsigned fieldsPerObject = 3;
    double secondLineFrac = 0.45;       //!< P(object spills to line 2)
    unsigned computePerObject = 56;     //!< business logic per object
    unsigned allocationsPerOp = 2;      //!< new objects per op
    unsigned locksPerOp = 7;            //!< CASA object locks per op
    unsigned opOverheadCompute = 420;
    unsigned hotFunctions = 160;        //!< code fits the L2
    double valueStability = 0.47;       //!< field reread stability
    uint64_t youngGenBytes = 384 * 1024; //!< allocation ring
};

/** Deterministic SPECjbb2000-like trace generator. */
class SpecJbbWorkload : public WorkloadBase
{
  public:
    SpecJbbWorkload();
    explicit SpecJbbWorkload(const SpecJbbParams &params);

  protected:
    void generate() override;

  private:
    void emitObjectTouch(unsigned slot);
    void emitAllocation();
    void emitHotCall();

    SpecJbbParams prm;
    uint64_t allocCursor = 0;
    uint64_t opCounter = 0;
    bool coldOp = false; //!< current op works the cold heap
};

} // namespace mlpsim::workloads
