/**
 * @file
 * Shared-generation fan-out: run many consumers of one trace stream
 * concurrently, so a (workload, seed, length) cell grid pays for ONE
 * generation instead of one per cell — the software analogue of the
 * paper's theme of overlapping long-latency work instead of
 * serialising it.
 *
 * SharedCellGroup runs engine cells over a context whose annotations
 * are already complete (the common sweep shape — one prepared trace,
 * many engine configs) from inside a SweepRunner job grid. Every cell
 * of the group rides one StreamFanout and runs on its own thread, so
 * the whole group consumes one generation: generating the trace costs
 * more than an average engine cell, so it is paid once per group, not
 * once per few cells. Only a group wider than
 * maxConsumersPerGeneration splits, into near-equal generations run
 * one after another. CellGrid is the scheduler the sweep layers use:
 * it decides which cells join a group. Annotation is never shared
 * this way: it is a separate pass (core/trace_pipeline.hh) that
 * completes first.
 *
 * One cell's stop neither governs nor blocks the cells that share
 * its generation: each cell runs under a token holding its own
 * deadline, and each cell thread owns its fan-out slot and drops it
 * the moment its body returns or throws, so a cell that stops early
 * never pins the ring the others still read.
 *
 * Determinism: each cell runs under a private metric registry
 * (CollectorScope); each cell's job merges its cell's registry into
 * its own and rethrows its cell's failure, so commits follow the
 * grid's submission order — exactly the SweepRunner contract, and
 * grouped and ungrouped sweeps produce byte-identical snapshots.
 */
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/trace_pipeline.hh"
#include "core/workload_context.hh"
#include "util/parallel.hh"

namespace mlpsim::core {

/**
 * One type-erased consumer of a shared stream: the body receives a
 * WorkloadContext whose `attached` stream is its claimed fan-out slot
 * (or, run alone, no attached stream) and must drain or abandon it
 * before returning. Bodies apply their own metric labels (they run on
 * a worker thread under a private registry) and store their own
 * results.
 */
struct SharedCell
{
    std::string label; //!< diagnostics only
    std::function<void(const WorkloadContext &)> body;
    /** The cell's own deadline (JobLimits::deadlineMillis of its
     *  job), armed when its body starts; negative = none. */
    double deadlineMillis = -1.0;
};

/**
 * Most cells that consume one generation, one thread each. A safety
 * bound on threads, not a tuning knob: a larger group splits into
 * ⌈n / maxConsumersPerGeneration⌉ near-equal generations.
 */
constexpr size_t maxConsumersPerGeneration = 32;

/**
 * Retired knobs of a shared-generation group, kept only so existing
 * callers still compile. Nothing reads them.
 */
struct SharedRunOptions
{
    /** Ignored: a group shares one generation per
     *  maxConsumersPerGeneration cells. */
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
 * on another job. A one-cell group runs its cell inline on the
 * leader's thread, over a stream of its own.
 *
 * The leader's attempt governs none of the other cells: each cell
 * runs under its own SharedCell::deadlineMillis, armed when its body
 * starts. A job that calls runCell() again for its cell — the runner
 * retrying a transient failure — re-runs only that cell, alone, on its
 * own thread and under its own attempt, over a fresh stream.
 *
 * Build the group fully (add() every cell) before submitting any of
 * its jobs. The group assumes a re-streamed trace; CellGrid never
 * builds one over a materialised trace.
 */
class SharedCellGroup
{
  public:
    /** @p run_options is ignored (see SharedRunOptions). */
    SharedCellGroup(WorkloadContext base_context,
                    SharedRunOptions run_options = {});
    ~SharedCellGroup();

    /** Register the next cell; returns its index. Not thread-safe —
     *  call during grid construction only. */
    size_t add(SharedCell cell);

    /**
     * Execute from cell @p index's job: lead or follow (see class
     * comment), then commit cell @p index's metrics to the calling
     * thread's registry and rethrow its error if it failed. A second
     * call for one index re-runs that cell alone (a retry).
     */
    void runCell(size_t index);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

/**
 * The cell scheduler of the sweep layers (bench::Sweep and the
 * daemon): defers each simulator cell of a batch on a SweepRunner and
 * decides whether it rides a shared generation. Every cell over a
 * re-streamed trace (sharesGeneration) joins the SharedCellGroup of
 * its generated trace (one per batch, shared by the trace's annotation
 * variants), carrying the deadline of the runner's current job limits;
 * a cell over a materialised trace is a plain job over the trace's
 * context. Either way the job returns
 * exactly its own cell's result and commits its own metrics, so
 * results and snapshots are byte-identical to running every cell on
 * its own.
 *
 * Groups are single-batch: defer every cell, run the runner, then
 * clear() before deferring the next batch. Each job holds its group,
 * so a job left queued when the grid is cleared or destroyed still
 * runs safely. Traces must outlive the batch.
 */
class CellGrid
{
  public:
    ~CellGrid();

    /** Defer one cell that runs @p body over @p trace's context (or
     *  over its claimed fan-out slot when grouped). */
    template <typename R>
    Job<R>
    defer(SweepRunner &runner, const PreparedTrace &trace, std::string label,
          std::function<R(const WorkloadContext &)> body)
    {
        std::shared_ptr<SharedCellGroup> group = groupFor(trace);
        if (!group)
            return runner.defer<R>(std::move(label),
                                   [body, ctx = trace.context()] {
                                       return body(ctx);
                                   });
        auto slot = std::make_shared<std::optional<R>>();
        const size_t index = group->add(SharedCell{
            label,
            [body, slot, own = trace.context()](const WorkloadContext &ctx) {
                // The group's stream, this trace's annotations.
                WorkloadContext cell_ctx = own;
                cell_ctx.attached = ctx.attached;
                slot->emplace(body(cell_ctx));
            },
            runner.jobLimits().deadlineMillis});
        return runner.defer<R>(std::move(label), [group, index, slot] {
            group->runCell(index);
            return std::move(**slot);
        });
    }

    /** Drop the batch's groups (after the runner ran them). */
    void clear();

  private:
    /** The group a cell over @p trace joins; null when the trace is
     *  materialised. */
    std::shared_ptr<SharedCellGroup> groupFor(const PreparedTrace &trace);

    std::vector<std::pair<const trace::ChunkSource *,
                          std::shared_ptr<SharedCellGroup>>>
        groups;
};

} // namespace mlpsim::core
