#include "parallel.hh"

#include <algorithm>

#include "metrics/registry.hh"

namespace mlpsim {

// ----- ThreadPool --------------------------------------------------

ThreadPool::ThreadPool(unsigned threads)
{
    MLPSIM_ASSERT(threads >= 1, "ThreadPool needs at least one thread");
    workers.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        stopping = true;
    }
    wake.notify_all();
    for (auto &worker : workers)
        worker.join();
}

void
ThreadPool::post(std::function<void()> fn)
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        queue.push_back(std::move(fn));
    }
    wake.notify_one();
}

void
ThreadPool::waitIdle()
{
    std::unique_lock<std::mutex> lock(mutex);
    idle.wait(lock, [this] { return queue.empty() && busy == 0; });
}

namespace {

/**
 * The process-wide span log. A batch appends to it once, which is
 * noise next to job bodies that simulate millions of instructions.
 */
std::mutex g_spanMutex;
std::vector<JobSpan> g_jobSpans;

/** 1-based id per pool worker thread; 0 on every other thread. */
thread_local unsigned t_workerId = 0;
std::atomic<unsigned> g_nextWorkerId{0};

} // namespace

void
ThreadPool::workerLoop()
{
    if (t_workerId == 0)
        t_workerId = 1 + g_nextWorkerId.fetch_add(1);
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
        wake.wait(lock, [this] { return stopping || !queue.empty(); });
        if (queue.empty()) {
            // stopping && drained: workers exit only once no work is
            // left, so ~ThreadPool never abandons a posted job.
            return;
        }
        std::function<void()> fn = std::move(queue.front());
        queue.pop_front();
        ++busy;
        lock.unlock();
        fn();
        lock.lock();
        --busy;
        if (queue.empty() && busy == 0)
            idle.notify_all();
    }
}

unsigned
ThreadPool::hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

// ----- SweepRunner -------------------------------------------------

void
detail::JobSlot::requireResult(bool has_value) const
{
    MLPSIM_ASSERT(done.load(), "reading job '", label,
                  "' before it ran");
    if (has_value)
        return;
    MLPSIM_ASSERT(!failStatus.ok(), "job '", label,
                  "': result already taken");
    fatal("job '", label, "' failed after ", attempts, " attempt",
          attempts == 1 ? "" : "s", ": ", failStatus.toString());
}

double
SweepRunner::BatchStats::concurrency() const
{
    return wallMillis > 0.0 ? busyMillis / wallMillis : 1.0;
}

SweepRunner::SweepRunner(unsigned job_count)
    : jobCount(job_count == 0 ? ThreadPool::hardwareThreads() : job_count)
{
    // Pin the span origin no later than the first runner, so no job
    // can start before it and spans never go negative.
    processEpoch();
}

SweepRunner::~SweepRunner()
{
    if (pool)
        pool->waitIdle();
}

void
SweepRunner::enqueue(std::shared_ptr<detail::JobSlot> slot,
                     std::function<void()> body)
{
    ++deferredCount;
    pending.push_back(Pending{std::move(slot), std::move(body)});
}

// ----- job execution -----------------------------------------------

namespace {

/**
 * The sleep before retrying a job whose attempt @p failed_attempt
 * (1-based) failed: 1 ms, doubling per further attempt, capped at 2 s.
 * No jitter, so reruns of one sweep back off on the same schedule.
 */
std::chrono::milliseconds
retryBackoff(unsigned failed_attempt)
{
    // 2^11 ms already passes the cap, so the shift cannot overflow.
    const unsigned doublings = std::min(failed_attempt - 1, 11u);
    return std::chrono::milliseconds(std::min(1LL << doublings, 2000LL));
}

} // namespace

/**
 * Run one attempt of @p job under @p tok, recording metrics into
 * @p registry when it is not null. Returns true on success; otherwise
 * fills @p failure with the classified Status.
 */
bool
SweepRunner::runAttempt(Pending &job, const CancelToken &tok,
                        metrics::MetricRegistry *registry, Status *failure)
{
    CancelScope scope(&tok);
    std::optional<metrics::CollectorScope> collect;
    if (registry)
        collect.emplace(registry);
    try {
        // A zero deadline fails the job without running a single
        // instruction of its body.
        pollCancellation();
        job.body();
        return true;
    } catch (const StatusError &e) {
        *failure = e.status();
    } catch (const std::exception &e) {
        *failure = Status::internal(e.what());
    } catch (...) {
        *failure = Status::internal("job threw a non-exception value");
    }
    return false;
}

void
SweepRunner::execute(Pending &job)
{
    const JobLimits &lim = job.slot->limits;

    const auto first_start = std::chrono::steady_clock::now();
    double total_millis = 0.0;
    unsigned attempt = 1;

    for (;; ++attempt) {
        // Fresh token per attempt: a blown deadline on attempt N must
        // not instantly kill attempt N+1.
        CancelToken token;
        token.setDeadlineAfterMillis(lim.deadlineMillis);

        // A private registry per attempt: a failed attempt's is
        // dropped with it, so partial metrics never reach the merge.
        std::shared_ptr<metrics::MetricRegistry> registry;
        if (metrics::enabled())
            registry = std::make_shared<metrics::MetricRegistry>();

        Status failure;
        const auto start = std::chrono::steady_clock::now();
        const bool ok = runAttempt(job, token, registry.get(), &failure);
        const auto end = std::chrono::steady_clock::now();

        if (jobEnd)
            jobEnd(job.slot->label);

        total_millis +=
            std::chrono::duration<double, std::milli>(end - start).count();

        if (ok) {
            job.slot->failStatus = Status::okStatus();
            job.slot->registry = std::move(registry);
            break;
        }

        if (isRetryable(failure.code()) && attempt < lim.maxAttempts) {
            std::this_thread::sleep_for(retryBackoff(attempt));
            continue;
        }

        job.slot->failStatus = std::move(failure);
        break;
    }

    job.slot->attempts = attempt;
    job.slot->startMillis =
        std::chrono::duration<double, std::milli>(first_start -
                                                  processEpoch())
            .count();
    job.slot->wallMillis = total_millis;
    job.slot->worker = t_workerId;

    // A start()ed job may wait long for the runAll() that closes its
    // batch: a caller that starts batch after batch would pin every
    // job's inputs (a shared trace, say) until then, so drop them now.
    // A job runAll() started keeps its closure until the batch closes
    // on the caller: freed here on the worker instead, the closures of
    // perfbench cyclesim-validate raised its peak RSS from 97 to 125 MB.
    if (job.releaseWhenRun)
        job.body = nullptr;
    {
        std::lock_guard<std::mutex> lock(doneMutex);
        job.slot->done = true;
    }
    jobDone.notify_all();
}

void
SweepRunner::start()
{
    launch(jobCount == 1, true);
}

void
SweepRunner::launch(bool run_inline, bool release_when_run)
{
    if (pending.empty())
        return;
    if (started.empty())
        batchStart = std::chrono::steady_clock::now();
    const std::size_t first = started.size();
    for (auto &job : pending) {
        job.releaseWhenRun = release_when_run;
        started.push_back(std::move(job));
    }
    pending.clear();

    if (run_inline) {
        // Inline execution: exactly the pre-parallel serial behaviour
        // (same thread, same order), so --jobs 1 is a true baseline.
        for (std::size_t i = first; i < started.size(); ++i)
            execute(started[i]);
        return;
    }
    if (!pool)
        pool = std::make_unique<ThreadPool>(jobCount);
    for (std::size_t i = first; i < started.size(); ++i)
        pool->post([this, &job = started[i]] { execute(job); });
}

void
SweepRunner::waitFor(const detail::JobSlot &slot)
{
    start();
    std::unique_lock<std::mutex> lock(doneMutex);
    jobDone.wait(lock, [&slot] { return slot.done.load(); });
}

void
SweepRunner::runAll()
{
    // A lone job runs inline too: no pool thread for one job.
    launch(jobCount == 1 || (started.empty() && pending.size() == 1),
           false);
    if (pool)
        pool->waitIdle();
    const auto end = std::chrono::steady_clock::now();

    std::deque<Pending> jobs;
    jobs.swap(started);
    batch = BatchStats{};
    batch.jobs = jobs.size();
    if (!jobs.empty()) {
        batch.wallMillis =
            std::chrono::duration<double, std::milli>(end - batchStart)
                .count();
    }
    failures.clear();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto &slot = *jobs[i].slot;
        batch.busyMillis += slot.wallMillis;
        batch.maxJobMillis = std::max(batch.maxJobMillis, slot.wallMillis);
        batch.retries += slot.attempts - 1;
        if (!slot.failStatus.ok()) {
            ++batch.failed;
            failures.push_back(JobFailure{i, slot.label, slot.failStatus,
                                          slot.attempts,
                                          slot.wallMillis});
        }
    }

    {
        std::lock_guard<std::mutex> lock(g_spanMutex);
        for (const auto &job : jobs) {
            g_jobSpans.push_back(JobSpan{job.slot->label,
                                         job.slot->startMillis,
                                         job.slot->wallMillis,
                                         job.slot->worker});
        }
    }

    // Merge per-job metrics in submission order — the ordering the
    // deterministic-snapshot contract depends on — releasing them with
    // the batch, not with the Job<T> handles. Failed jobs kept none
    // (see execute()), so only complete, successful attempts merge.
    for (const auto &job : jobs) {
        if (const auto registry = std::move(job.slot->registry))
            metrics::MetricRegistry::global().merge(*registry);
    }

    // Graceful degradation: the sweep outlives its failed cells. The
    // record is on lastFailures(); callers surface it via the sweep
    // report. One summary line so a quiet terminal still shows that
    // something went wrong.
    if (!failures.empty()) {
        warn("sweep: ", failures.size(), " of ", jobs.size(),
             " jobs failed; first: '", failures.front().label, "': ",
             failures.front().status.toString());
    }
}

std::vector<JobSpan>
SweepRunner::drainSpans()
{
    std::lock_guard<std::mutex> lock(g_spanMutex);
    std::vector<JobSpan> out;
    out.swap(g_jobSpans);
    return out;
}

std::chrono::steady_clock::time_point
SweepRunner::processEpoch()
{
    // First use pins the origin; static-local init is thread-safe.
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

} // namespace mlpsim
