/**
 * @file
 * The epoch-model MLP engine (paper Section 3).
 *
 * The engine partitions a dynamic instruction stream into epoch sets.
 * Time is measured in epochs, not cycles: on-chip work inside an epoch
 * is free, every off-chip access issued within an epoch completes at
 * its end, and the epoch's extent through the instruction stream is
 * bounded by the window termination conditions of Section 3.2 —
 * window/ROB capacity, serializing instructions, instruction-fetch
 * misses and unresolvable mispredicted branches — plus the issue-policy
 * constraints of Table 2. Average MLP is the ratio of useful off-chip
 * accesses to epochs.
 *
 * Out-of-order and runahead machines are handled here; the in-order
 * models live in inorder_model.hh.
 *
 * Implementation (DESIGN.md section 12): one pass over the trace in
 * program order. The machine is a sequence of steps inside epochs, so
 * a time is an (epoch, step) pair, and the pass stamps each
 * instruction's fetch, dispatch, execute and retire time from older
 * instructions' stamps only: fetch, dispatch and retirement are in
 * order and execution is oldest first, so nothing younger can move an
 * instruction. An off-chip access opens the epoch it executes in and
 * returns at the next epoch's first step. Each epoch's statistics,
 * closing inhibitor and step count are folded in once the pass has
 * fetched past it. Between off-chip events the machine is a conveyor,
 * which the pass advances a dispatch batch at a time.
 */
#pragma once

#include "core/mlp_config.hh"
#include "core/mlp_result.hh"
#include "core/workload_context.hh"

namespace mlpsim::core {

/** Epoch-model simulator for OoO and runahead machines. */
class EpochEngine
{
  public:
    EpochEngine(const MlpConfig &config, const WorkloadContext &workload);

    /** Partition the whole trace into epochs and return statistics. */
    MlpResult run();

  private:
    const MlpConfig cfg;
    const WorkloadContext &wl;
};

} // namespace mlpsim::core
