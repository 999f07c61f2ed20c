/**
 * @file
 * Shared-generation fan-out: run many consumers of one trace stream
 * concurrently, so a (workload, seed, length) cell grid pays for ONE
 * generation instead of one per cell — the software analogue of the
 * paper's theme of overlapping long-latency work instead of
 * serialising it.
 *
 * runSharedCells() runs engine cells over a context whose annotations
 * are already complete (the common sweep shape — one prepared trace,
 * many engine configs). Cells are grouped into waves of at most
 * `maxConcurrent`; each wave claims the slots of one StreamFanout and
 * runs its cells on threads, so a wave of N engines consumes one
 * generation. SharedCellGroup runs the same waves from inside a
 * SweepRunner job grid. Annotation is never shared this way: it is a
 * separate pass (core/trace_pipeline.hh) that completes first.
 *
 * Determinism: each cell runs under a private metric registry
 * (CollectorScope); registries are merged into the caller's registry
 * in cell submission order after every thread has joined, and the
 * first failing cell's exception (in submission order) is rethrown —
 * exactly the SweepRunner contract, so grouped and ungrouped sweeps
 * produce byte-identical snapshots.
 */
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/workload_context.hh"

namespace mlpsim::core {

/**
 * One type-erased consumer of a shared stream: the body receives a
 * WorkloadContext whose `attached` stream is its claimed fan-out slot
 * and must drain or abandon it before returning. Bodies apply their
 * own metric labels (they run on a worker thread under a private
 * registry) and store their own results.
 */
struct SharedCell
{
    std::string label; //!< diagnostics only
    std::function<void(const WorkloadContext &)> body;
};

/** Knobs for the shared runners. */
struct SharedRunOptions
{
    /** Cells run concurrently per generation (wave size). */
    size_t maxConcurrent = 8;
};

/**
 * Whether runs over @p ctx gain from sharing a generation: true when
 * its trace is re-streamed on every run, false when it is
 * materialised (chunk access is free).
 */
inline bool
sharesGeneration(const WorkloadContext &ctx)
{
    return ctx.source->materialized() == nullptr;
}

/**
 * Run @p cells over @p base, sharing one stream generation per wave
 * of `maxConcurrent` cells. Annotations in @p base must be complete.
 * Falls back to plain sequential execution when the trace is
 * materialised (!sharesGeneration) or there is only one cell.
 * Exceptions are captured per cell; the first (in submission order)
 * is rethrown after all cells finish and metrics are merged.
 */
void runSharedCells(const WorkloadContext &base,
                    std::vector<SharedCell> &cells,
                    const SharedRunOptions &options = {});

/**
 * Leader/follower execution of one fan-out group inside a job grid
 * with no inter-job dependency support (SweepRunner): every cell is
 * still submitted as its own job — keeping per-cell results, failure
 * records and submission-order metric commits — but the first of the
 * group's jobs to execute (the leader) runs ALL cells concurrently
 * over shared stream generations; the others (followers) block until
 * it finishes. Each job then adopts exactly its own cell's private
 * registry (merged into the job's current registry) and rethrows its
 * own cell's exception, so the global commit order is the submission
 * order regardless of which job led — snapshots are byte-identical to
 * ungrouped execution. Deadlock-free because the leader never waits
 * on another job.
 *
 * The leader's attempt context (cancel token, deadline) governs every
 * cell of the group, and a retried job only re-reads its cell's first
 * outcome. So only jobs with no deadline and one attempt
 * (JobLimits::shareable()) may join a group; the rest run on their own.
 *
 * Build the group fully (add() every cell) before submitting any of
 * its jobs.
 */
class SharedCellGroup
{
  public:
    SharedCellGroup(WorkloadContext base_context,
                    SharedRunOptions run_options = {});
    ~SharedCellGroup();

    /** Register the next cell; returns its index. Not thread-safe —
     *  call during grid construction only. */
    size_t add(SharedCell cell);

    /**
     * Execute from cell @p index's job: lead or follow (see class
     * comment), then commit cell @p index's metrics to the calling
     * thread's registry and rethrow its error if it failed.
     */
    void runCell(size_t index);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

} // namespace mlpsim::core
