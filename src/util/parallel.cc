#include "parallel.hh"

#include <algorithm>

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
 * Process-wide job-hook and span state. One mutex guards both; jobs
 * touch it twice each (hook copy at start, span append at end), which
 * is noise next to a job body that simulates millions of instructions.
 */
std::mutex g_jobStateMutex;
JobHooks g_jobHooks;
std::vector<JobSpan> g_jobSpans;

/** 1-based id per pool worker thread; 0 on every other thread. */
thread_local unsigned t_workerId = 0;
std::atomic<unsigned> g_nextWorkerId{0};

JobHooks
currentJobHooks()
{
    std::lock_guard<std::mutex> lock(g_jobStateMutex);
    return g_jobHooks;
}

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
    MLPSIM_ASSERT(done, "reading job '", label,
                  "' before SweepRunner::runAll()");
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
 * Run one attempt of @p job under @p tok. Returns true on success;
 * otherwise fills @p failure with the classified Status.
 */
bool
SweepRunner::runAttempt(Pending &job, const CancelToken &tok,
                        Status *failure)
{
    CancelScope scope(&tok);
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
    const JobHooks hooks = currentJobHooks();
    const JobLimits &lim = job.slot->limits;

    const auto first_start = std::chrono::steady_clock::now();
    double total_millis = 0.0;
    unsigned attempt = 1;

    for (;; ++attempt) {
        // Fresh token per attempt: a blown deadline on attempt N must
        // not instantly kill attempt N+1.
        CancelToken token;
        token.setDeadlineAfterMillis(lim.deadlineMillis);

        // Per-attempt hook pair; a failed attempt's token is dropped
        // below so partial metrics never reach the snapshot merge.
        if (hooks.begin)
            job.slot->hookToken = hooks.begin(job.slot->label);

        Status failure;
        const auto start = std::chrono::steady_clock::now();
        const bool ok = runAttempt(job, token, &failure);
        const auto end = std::chrono::steady_clock::now();

        if (hooks.end)
            hooks.end(job.slot->hookToken);

        total_millis +=
            std::chrono::duration<double, std::milli>(end - start).count();

        if (ok) {
            job.slot->failStatus = Status::okStatus();
            break;
        }

        job.slot->hookToken.reset();
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
    job.slot->done = true;
}

void
SweepRunner::runAll()
{
    std::vector<Pending> jobs;
    jobs.swap(pending);

    const auto start = std::chrono::steady_clock::now();
    if (jobCount == 1 || jobs.size() <= 1) {
        // Inline execution: exactly the pre-parallel serial behaviour
        // (same thread, same order), so --jobs 1 is a true baseline.
        for (auto &job : jobs)
            execute(job);
    } else {
        if (!pool)
            pool = std::make_unique<ThreadPool>(jobCount);
        for (auto &job : jobs)
            pool->post([this, &job] { execute(job); });
        pool->waitIdle();
    }
    const auto end = std::chrono::steady_clock::now();

    batch = BatchStats{};
    batch.jobs = jobs.size();
    batch.wallMillis =
        std::chrono::duration<double, std::milli>(end - start).count();
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
        std::lock_guard<std::mutex> lock(g_jobStateMutex);
        for (const auto &job : jobs) {
            g_jobSpans.push_back(JobSpan{job.slot->label,
                                         job.slot->startMillis,
                                         job.slot->wallMillis,
                                         job.slot->worker});
        }
    }

    // Commit per-job hook tokens in submission order — the ordering
    // the metrics layer's deterministic-merge contract depends on —
    // and drop the tokens so job-private state is released with the
    // batch, not with the Job<T> handles. Failed jobs have no token
    // left (dropped in execute()), so only complete, successful
    // attempts are merged.
    const JobHooks hooks = currentJobHooks();
    for (const auto &job : jobs) {
        if (hooks.commit && job.slot->hookToken)
            hooks.commit(job.slot->hookToken, job.slot->label);
        job.slot->hookToken.reset();
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

void
SweepRunner::setJobHooks(JobHooks hooks)
{
    std::lock_guard<std::mutex> lock(g_jobStateMutex);
    g_jobHooks = std::move(hooks);
}

std::vector<JobSpan>
SweepRunner::drainSpans()
{
    std::lock_guard<std::mutex> lock(g_jobStateMutex);
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
