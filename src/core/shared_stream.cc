#include "shared_stream.hh"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "metrics/registry.hh"
#include "util/cancellation.hh"
#include "util/logging.hh"

namespace mlpsim::core {

namespace {

/** Per-cell execution record for submission-order commit. The
 *  registry sits behind a pointer (MetricRegistry is pinned — see
 *  registry.hh) so execution records can live in vectors. */
struct CellExec
{
    std::unique_ptr<metrics::MetricRegistry> registry =
        std::make_unique<metrics::MetricRegistry>();
    std::exception_ptr error;
};

/**
 * Run one cell with the SweepRunner job environment reproduced on
 * this thread: the caller's cancel token installed and a private
 * metric registry collecting (merged later, in submission order).
 */
void
runCellIsolated(SharedCell &cell, const WorkloadContext &ctx,
                CellExec &exec, const CancelToken *token)
{
    CancelScope cancel(token);
    std::optional<metrics::CollectorScope> collect;
    if (metrics::enabled())
        collect.emplace(exec.registry.get());
    try {
        cell.body(ctx);
    } catch (...) {
        exec.error = std::current_exception();
    }
}

void
mergeAndRethrow(std::vector<CellExec> &execs)
{
    if (metrics::enabled()) {
        for (CellExec &exec : execs)
            metrics::cur().merge(*exec.registry);
    }
    for (CellExec &exec : execs)
        if (exec.error)
            std::rethrow_exception(exec.error);
}

/**
 * The wave loop shared by runSharedCells and the group leader: run
 * every cell into its exec slot, `maxConcurrent` at a time, each wave
 * consuming one shared stream generation.
 */
void
executeCellWaves(const WorkloadContext &base, std::vector<SharedCell> &cells,
                 std::vector<CellExec> &execs,
                 const SharedRunOptions &options, const CancelToken *token)
{
    const size_t wave = std::max<size_t>(1, options.maxConcurrent);
    for (size_t begin = 0; begin < cells.size(); begin += wave) {
        const size_t n = std::min(wave, cells.size() - begin);
        if (n == 1 || !sharesGeneration(base)) {
            // Lone trailing cell (a one-consumer ring buys nothing) or
            // materialised: run here, still isolated for ordering.
            for (size_t i = 0; i < n; ++i)
                runCellIsolated(cells[begin + i], base, execs[begin + i],
                                token);
            continue;
        }
        auto fanout = base.source->openFanout(n);
        std::vector<std::unique_ptr<trace::ChunkStream>> slots(n);
        for (size_t i = 0; i < n; ++i)
            slots[i] = fanout->stream(i);
        std::vector<std::thread> threads;
        threads.reserve(n);
        for (size_t i = 0; i < n; ++i) {
            WorkloadContext ctx = base;
            ctx.attached = slots[i].get();
            threads.emplace_back([&cells, &execs, ctx, token,
                                  cell_index = begin + i]() {
                runCellIsolated(cells[cell_index], ctx, execs[cell_index],
                                token);
            });
        }
        for (std::thread &t : threads)
            t.join();
    }
}

} // namespace

void
runSharedCells(const WorkloadContext &base, std::vector<SharedCell> &cells,
               const SharedRunOptions &options)
{
    if (cells.empty())
        return;
    if (!sharesGeneration(base) || cells.size() == 1) {
        // Materialised (chunk access is free) or nothing to share:
        // plain sequential execution on the caller's registry.
        for (SharedCell &cell : cells)
            cell.body(base);
        return;
    }

    const CancelToken *token = activeCancelToken();
    std::vector<CellExec> execs(cells.size());
    executeCellWaves(base, cells, execs, options, token);
    mergeAndRethrow(execs);
}

struct SharedCellGroup::Impl
{
    WorkloadContext base;
    SharedRunOptions options;
    std::vector<SharedCell> cells;

    std::mutex mutex;
    std::condition_variable cv;
    bool started = false;
    bool done = false;
    std::vector<CellExec> execs;
    /** A failure before any cell body ran (fanout setup); every job
     *  of the group reports it. */
    std::exception_ptr setupError;
};

SharedCellGroup::SharedCellGroup(WorkloadContext base_context,
                                 SharedRunOptions run_options)
    : impl(std::make_unique<Impl>())
{
    impl->base = base_context;
    impl->options = run_options;
}

SharedCellGroup::~SharedCellGroup() = default;

size_t
SharedCellGroup::add(SharedCell cell)
{
    impl->cells.push_back(std::move(cell));
    return impl->cells.size() - 1;
}

void
SharedCellGroup::runCell(size_t index)
{
    Impl &g = *impl;
    MLPSIM_ASSERT(index < g.cells.size(), "shared-cell index out of range");
    std::unique_lock<std::mutex> lock(g.mutex);
    if (!g.started) {
        // Leader: run every cell of the group (the followers' jobs
        // only adopt). The leader's cancel token governs the whole
        // group's engine threads.
        g.started = true;
        g.execs.resize(g.cells.size());
        lock.unlock();
        try {
            executeCellWaves(g.base, g.cells, g.execs, g.options,
                            activeCancelToken());
        } catch (...) {
            std::lock_guard<std::mutex> relock(g.mutex);
            g.setupError = std::current_exception();
        }
        lock.lock();
        g.done = true;
        g.cv.notify_all();
    } else {
        g.cv.wait(lock, [&] { return g.done; });
    }
    lock.unlock();

    // Adopt exactly this cell's telemetry and outcome on the calling
    // job's thread — commit order stays the grid's submission order.
    if (g.setupError)
        std::rethrow_exception(g.setupError);
    if (metrics::enabled())
        metrics::cur().merge(*g.execs[index].registry);
    if (g.execs[index].error)
        std::rethrow_exception(g.execs[index].error);
}

} // namespace mlpsim::core
