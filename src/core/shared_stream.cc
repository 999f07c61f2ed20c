#include "shared_stream.hh"

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
    bool adopted = false; //!< the cell's job has read this outcome
};

/**
 * Run one cell with the SweepRunner job environment reproduced on
 * this thread: a token holding the cell's own deadline installed and
 * a private metric registry collecting (merged later, in submission
 * order).
 */
void
runCellIsolated(SharedCell &cell, const WorkloadContext &ctx,
                CellExec &exec)
{
    CancelToken token;
    token.setDeadlineAfterMillis(cell.deadlineMillis);
    CancelScope cancel(&token);
    std::optional<metrics::CollectorScope> collect;
    if (metrics::enabled())
        collect.emplace(exec.registry.get());
    try {
        cell.body(ctx);
    } catch (...) {
        exec.error = std::current_exception();
    }
}

/**
 * Run cells [begin, begin + n) of the group as the @p n consumers of
 * one shared generation, each on its own thread. Each thread owns its
 * fan-out slot and drops it as soon as its cell's body returns or
 * throws: a slot left claimed would pin the ring, and so stall every
 * other cell of the generation.
 */
void
executeGeneration(const WorkloadContext &base,
                  std::vector<SharedCell> &cells,
                  std::vector<CellExec> &execs, size_t begin, size_t n)
{
    auto fanout = base.source->openFanout(n);
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        threads.emplace_back([&cells, &execs, base, cell_index = begin + i,
                              slot = fanout->stream(i)]() mutable {
            WorkloadContext ctx = base;
            ctx.attached = slot.get();
            runCellIsolated(cells[cell_index], ctx, execs[cell_index]);
            slot.reset();
        });
    }
    for (std::thread &t : threads)
        t.join();
}

/**
 * The group leader's run: every cell into its exec slot, over one
 * generation per maxConsumersPerGeneration cells.
 */
void
executeCells(const WorkloadContext &base, std::vector<SharedCell> &cells,
             std::vector<CellExec> &execs)
{
    const size_t n = cells.size();
    if (n == 1) {
        // A one-consumer ring buys nothing: run here, still isolated
        // for ordering.
        runCellIsolated(cells[0], base, execs[0]);
        return;
    }
    // Near-equal generations: the first n % generations take one more
    // cell, so no generation is left a lone straggler.
    const size_t generations =
        (n + maxConsumersPerGeneration - 1) / maxConsumersPerGeneration;
    size_t begin = 0;
    for (size_t g = 0; g < generations; ++g) {
        const size_t width =
            n / generations + (g < n % generations ? 1 : 0);
        executeGeneration(base, cells, execs, begin, width);
        begin += width;
    }
}

} // namespace

struct SharedCellGroup::Impl
{
    WorkloadContext base;
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
                                 SharedRunOptions /* run_options */)
    : impl(std::make_unique<Impl>())
{
    impl->base = base_context;
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
        // only adopt), each under its own deadline.
        g.started = true;
        g.execs.resize(g.cells.size());
        lock.unlock();
        try {
            executeCells(g.base, g.cells, g.execs);
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
    const bool retry = std::exchange(g.execs[index].adopted, true);
    lock.unlock();

    if (retry) {
        // The job already read this cell's outcome, so the runner is
        // retrying it: re-run the cell alone, on this thread under the
        // job's own attempt, over a fresh stream of its own.
        g.cells[index].body(g.base);
        return;
    }

    // Adopt exactly this cell's telemetry and outcome on the calling
    // job's thread — commit order stays the grid's submission order.
    if (g.setupError)
        std::rethrow_exception(g.setupError);
    if (metrics::enabled())
        metrics::cur().merge(*g.execs[index].registry);
    if (g.execs[index].error)
        std::rethrow_exception(g.execs[index].error);
}

CellGrid::~CellGrid() = default;

std::shared_ptr<SharedCellGroup>
CellGrid::groupFor(const PreparedTrace &trace)
{
    // A materialised trace has no generation to share.
    const WorkloadContext ctx = trace.context();
    if (!sharesGeneration(ctx))
        return nullptr;
    for (auto &entry : groups)
        if (entry.first == ctx.source)
            return entry.second;
    groups.emplace_back(ctx.source, std::make_shared<SharedCellGroup>(ctx));
    return groups.back().second;
}

void
CellGrid::clear()
{
    groups.clear();
}

} // namespace mlpsim::core
