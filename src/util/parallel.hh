/**
 * @file
 * Fixed thread pool and deterministic job-grid execution, with a
 * fault-tolerant execution layer (deadlines, retry, collect-all).
 *
 * MLPsim's sweeps — (machine configuration x workload) grids over the
 * same annotated traces — are embarrassingly parallel: every job only
 * reads a const AnnotatedTrace and writes its own result object.
 * SweepRunner exploits that without giving up reproducibility:
 *
 *  - Jobs are *deferred*: defer() records a closure and returns a
 *    typed Job<T> handle; nothing executes until runAll().
 *  - runAll() executes all pending jobs on a fixed pool of worker
 *    threads (or inline on the calling thread when the runner was
 *    built with one job slot, which is bit-for-bit today's serial
 *    behaviour).
 *  - Results are collected in *submission order*: a Job<T> handle is a
 *    stable slot, so consumers read the grid back in exactly the order
 *    they built it no matter which worker finished first. Stdout
 *    formatting therefore stays deterministic.
 *
 * Failure semantics (DESIGN.md section 13):
 *
 *  - Every job failure — thrown exception, blown deadline — is
 *    recorded as a JobFailure (submission index, label, classified
 *    Status, attempt count); nothing is silently dropped. The batch
 *    always runs to completion, runAll() never throws, and
 *    lastFailures() lists the failures in submission order — not
 *    completion order, which varies with thread scheduling, so "which
 *    failure a sweep reports first" is deterministic and bisectable.
 *    Successful slots stay readable, and the caller turns the record
 *    into a sweep report (metrics/export.hh): this is how a
 *    thousand-point sweep survives one poisoned cell.
 *  - Reading a failed job's result (Job::get(), Job::take()) is the
 *    point where a caller that needs it dies: fatal() names the job
 *    and its Status, and runs the exit-flush hook, so requested
 *    output files are still written.
 *  - JobLimits (setJobLimits) arm a per-job cooperative deadline,
 *    enforced where the simulation kernels poll for cancellation
 *    (util/cancellation.hh), and an attempt budget for transient
 *    failures (status.hh FailureClass). A retried job sleeps on a
 *    fixed schedule first — 1 ms, doubling, capped at 2 s — so two
 *    runs of one sweep back off identically.
 *
 * Metric isolation (metrics/registry.hh): while collection is on,
 * every attempt of a job records into a private MetricRegistry,
 * installed as its thread's current registry. A failed attempt's
 * registry is dropped, so partial metrics never reach a snapshot, and
 * runAll() merges the successful jobs' registries into
 * MetricRegistry::global() in submission order. Snapshots are thus
 * bit-identical for every --jobs value with nothing for a caller to
 * install; this is why the runner is built into the mlpsim_metrics
 * library although its header lives here.
 *
 * On the all-success path none of this machinery observably runs:
 * results, stdout and --metrics-out files stay byte-identical to the
 * pre-fault-tolerance behaviour for every --jobs value.
 *
 * Per-job wall time is recorded on every slot and aggregated per
 * runAll() batch so callers can report observed speedup.
 */
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/cancellation.hh"
#include "util/logging.hh"
#include "util/status.hh"

namespace mlpsim {

namespace metrics {
class MetricRegistry; // metrics/registry.hh
}

/**
 * A fixed set of worker threads draining one FIFO queue.
 *
 * The pool is deliberately minimal: post() closures, waitIdle() for
 * the queue to drain. Ordering guarantees live one level up in
 * SweepRunner; the pool itself promises only that every posted closure
 * runs exactly once.
 */
class ThreadPool
{
  public:
    /** Spin up @p threads workers. @pre threads >= 1. */
    explicit ThreadPool(unsigned threads);

    /** Joins all workers after the queue drains. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p fn; it must not throw (wrap exceptions yourself). */
    void post(std::function<void()> fn);

    /** Block until the queue is empty and every worker is idle. */
    void waitIdle();

    unsigned threadCount() const { return unsigned(workers.size()); }

    /** std::thread::hardware_concurrency(), never less than 1. */
    static unsigned hardwareThreads();

  private:
    void workerLoop();

    std::vector<std::thread> workers;
    std::deque<std::function<void()>> queue;
    std::mutex mutex;
    std::condition_variable wake;     //!< work available / shutting down
    std::condition_variable idle;     //!< queue drained + workers idle
    unsigned busy = 0;                //!< workers currently running a job
    bool stopping = false;
};

/**
 * The executed extent of one job: when it started (relative to a
 * process-wide epoch), how long it ran, and on which worker. Spans are
 * recorded for every job of every runner into one process-wide log so
 * the metrics layer can export a Chrome trace_event timeline of a
 * whole binary's schedule (prepare batches and sweep batches alike).
 * Failed jobs appear too — a job stuck until its deadline is exactly
 * what the timeline exists to show.
 */
struct JobSpan
{
    std::string label;
    double startMillis = 0.0;  //!< since processEpoch()
    double durMillis = 0.0;
    unsigned worker = 0;       //!< 0 = the runner's calling thread
};

/** One recorded job failure (see the file comment's failure model). */
struct JobFailure
{
    std::size_t index = 0;   //!< submission index within the batch
    std::string label;
    Status status;           //!< classified error (never OK)
    unsigned attempts = 1;   //!< attempts actually executed
    double wallMillis = 0.0; //!< execution time across all attempts

    /** The retry taxonomy bucket of `status`. */
    FailureClass failureClass() const
    {
        return ::mlpsim::failureClass(status.code());
    }
};

/**
 * Per-job execution limits, applied to jobs deferred after
 * SweepRunner::setJobLimits(). The defaults (no deadline, one
 * attempt) are exactly the historical semantics.
 */
struct JobLimits
{
    /**
     * Cooperative deadline per *attempt*, in milliseconds. Negative =
     * none; 0 = already expired (the job fails at its first
     * cancellation poll — the cheap way to express "skip this cell").
     */
    double deadlineMillis = -1.0;

    /**
     * Total attempts including the first; 1 = never retry. Only
     * transient failures (Unavailable, IoError) are retried; blown
     * deadlines and permanent errors never are.
     */
    unsigned maxAttempts = 1;
};

namespace detail {

/** Type-erased result slot shared by SweepRunner and Job<T>. */
struct JobSlot
{
    virtual ~JobSlot() = default;

    std::string label;                //!< for diagnostics/progress
    Status failStatus;                //!< classified final failure
    JobLimits limits;                 //!< limits in force at defer()
    /** The successful attempt's private metrics, until runAll()
     *  merges them (null while metric collection is off). */
    std::shared_ptr<metrics::MetricRegistry> registry;
    double startMillis = 0.0;         //!< since processEpoch()
    double wallMillis = 0.0;          //!< execution time of this job
    unsigned worker = 0;              //!< executing worker (0 = caller)
    unsigned attempts = 1;            //!< attempts actually executed
    bool done = false;                //!< ran (successfully or not)

    /** fatal() unless the job ran and left a result (@p has_value). */
    void requireResult(bool has_value) const;
};

template <typename T>
struct TypedJobSlot final : JobSlot
{
    std::optional<T> value;
};

} // namespace detail

/**
 * Handle to one deferred job's future result. Valid to read after the
 * owning SweepRunner::runAll() returned; reading a failed job's result
 * is fatal, so a caller that can do without it checks succeeded()
 * first.
 */
template <typename T>
class Job
{
  public:
    Job() = default;

    /** The job's result. @pre the owning runAll() has returned;
     *  fatal() with the job's label and Status if it failed. */
    const T &
    get() const
    {
        MLPSIM_ASSERT(slot, "Job::get() on an empty handle");
        slot->requireResult(slot->value.has_value());
        return *slot->value;
    }

    /** Move the result out (for move-only result types). */
    T
    take()
    {
        MLPSIM_ASSERT(slot, "Job::take() on an empty handle");
        slot->requireResult(slot->value.has_value());
        T out = std::move(*slot->value);
        slot->value.reset();
        return out;
    }

    /** True once the job ran to completion without failing. */
    bool
    succeeded() const
    {
        return slot && slot->done && slot->failStatus.ok();
    }

    /** OK while/after a successful run; the final failure otherwise. */
    const Status &
    status() const
    {
        static const Status ok_status;
        return slot ? slot->failStatus : ok_status;
    }

    /** Attempts actually executed (1 unless retries happened). */
    unsigned attempts() const { return slot ? slot->attempts : 0; }

    /** Wall-clock execution time of this job, in milliseconds. */
    double millis() const { return slot ? slot->wallMillis : 0.0; }

    bool valid() const { return slot != nullptr; }

  private:
    friend class SweepRunner;
    explicit Job(std::shared_ptr<detail::TypedJobSlot<T>> s)
        : slot(std::move(s))
    {
    }

    std::shared_ptr<detail::TypedJobSlot<T>> slot;
};

/**
 * Deferred job grid with submission-ordered result collection.
 *
 * Usage:
 * @code
 *   SweepRunner runner(jobs);                    // 0 = hardware threads
 *   auto a = runner.defer<double>("cell a", [] { return runA(); });
 *   auto b = runner.defer<double>("cell b", [] { return runB(); });
 *   runner.runAll();                             // parallel execution
 *   use(a.get(), b.get());                       // submission order
 * @endcode
 *
 * runAll() may be called repeatedly; each call executes the jobs
 * deferred since the previous call (so dependent stages are expressed
 * as consecutive batches). Worker threads are created lazily on the
 * first parallel batch and reused across batches.
 */
class SweepRunner
{
  public:
    /** Aggregate statistics of the most recent runAll() batch. */
    struct BatchStats
    {
        std::size_t jobs = 0;
        std::size_t failed = 0;     //!< jobs whose final attempt failed
        std::size_t retries = 0;    //!< extra attempts across all jobs
        double wallMillis = 0.0;    //!< batch wall-clock time
        double busyMillis = 0.0;    //!< sum of per-job wall times
        double maxJobMillis = 0.0;  //!< slowest single job

        /**
         * busy/wall — the average number of jobs in flight. On an
         * otherwise-idle machine with enough cores this equals the
         * wall-clock speedup over --jobs 1; on an oversubscribed
         * machine it only measures concurrency (per-job wall times
         * are inflated by time slicing).
         */
        double concurrency() const;
    };

    /**
     * @param job_count Worker threads for parallel batches; 0 selects
     *        ThreadPool::hardwareThreads(); 1 executes every batch
     *        inline on the calling thread (exact serial semantics).
     */
    explicit SweepRunner(unsigned job_count = 0);

    SweepRunner(const SweepRunner &) = delete;
    SweepRunner &operator=(const SweepRunner &) = delete;

    /** The effective parallelism (resolved, never 0). */
    unsigned jobs() const { return jobCount; }

    /** Record @p fn for the next runAll(); returns its result handle. */
    template <typename T>
    Job<T>
    defer(std::string label, std::function<T()> fn)
    {
        auto slot = std::make_shared<detail::TypedJobSlot<T>>();
        slot->label = std::move(label);
        slot->limits = limits;
        enqueue(slot, [slot, fn = std::move(fn)] { slot->value = fn(); });
        return Job<T>(slot);
    }

    /** defer() for jobs whose only effect is via captured state. */
    void
    deferVoid(std::string label, std::function<void()> fn)
    {
        auto slot = std::make_shared<detail::TypedJobSlot<bool>>();
        slot->label = std::move(label);
        slot->limits = limits;
        enqueue(slot, [fn = std::move(fn)] { fn(); });
    }

    /**
     * Execute all jobs deferred since the last runAll(). Blocks until
     * every one of them finished and never throws: every failure is
     * recorded (see lastFailures()), and successful slots are readable
     * through their Job<T> handles.
     */
    void runAll();

    /** Limits applied to jobs deferred after this call. */
    void setJobLimits(JobLimits job_limits) { limits = job_limits; }
    const JobLimits &jobLimits() const { return limits; }

    /** Every failure of the most recent batch, in submission order. */
    const std::vector<JobFailure> &lastFailures() const
    {
        return failures;
    }

    /** Total jobs deferred over the runner's lifetime. */
    std::size_t totalDeferred() const { return deferredCount; }

    const BatchStats &lastBatch() const { return batch; }

    /**
     * Call @p callback with the job's label on the executing thread
     * after every attempt of every job this runner executes — a job
     * that fails at a zero deadline included, a retried job once per
     * attempt. Not to be changed while a batch runs.
     */
    void setJobEndCallback(std::function<void(const std::string &)> callback)
    {
        jobEnd = std::move(callback);
    }

    /**
     * All job spans recorded process-wide since the last drain, in
     * batch-completion order (submission order within a batch).
     * Draining clears the log.
     */
    static std::vector<JobSpan> drainSpans();

    /** The steady-clock origin JobSpan::startMillis is relative to. */
    static std::chrono::steady_clock::time_point processEpoch();

  private:
    struct Pending
    {
        std::shared_ptr<detail::JobSlot> slot;
        std::function<void()> body;  //!< fills the slot's value
    };

    void enqueue(std::shared_ptr<detail::JobSlot> slot,
                 std::function<void()> body);
    void execute(Pending &job);
    static bool runAttempt(Pending &job, const CancelToken &tok,
                           metrics::MetricRegistry *registry,
                           Status *failure);

    unsigned jobCount;
    std::vector<Pending> pending;
    std::size_t deferredCount = 0;
    std::unique_ptr<ThreadPool> pool;  //!< lazily created, reused
    BatchStats batch;

    JobLimits limits;
    std::vector<JobFailure> failures;  //!< last batch, submission order
    std::function<void(const std::string &)> jobEnd;
};

} // namespace mlpsim
