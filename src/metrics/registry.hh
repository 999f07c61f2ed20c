/**
 * @file
 * Instrumented-metrics registry: named counters, gauges, distributions
 * and histograms (backed by util/stats.hh RunningStat/Histogram),
 * scoped wall-clock timers, and a hierarchical label scheme.
 *
 * Design constraints, in order:
 *
 *  1. **Zero cost when disabled.** Collection is off by default; every
 *     instrumentation site guards itself with `if (enabled())`, a
 *     single relaxed atomic load that inlines from this header, so the
 *     simulator inner loops pay nothing until a binary opts in with
 *     --metrics-out (which calls setEnabled(true) before any threads
 *     start).
 *
 *  2. **Deterministic snapshots.** Bench sweeps run on worker threads,
 *     and floating-point accumulation is order-sensitive, so
 *     interleaving updates from concurrently running cells into one
 *     registry would make snapshots depend on thread scheduling.
 *     Instead, SweepRunner (util/parallel.hh) runs each job attempt
 *     with its own private registry installed as the thread's
 *     *current* one (CollectorScope), drops a failed attempt's, and
 *     merges the successful jobs' registries into the global one in
 *     *submission order* after each batch. No binary installs
 *     anything: identical flags produce bit-identical snapshots for
 *     every --jobs value.
 *
 *  3. **Hierarchical labels.** Metric paths follow
 *     `workload/config/component/metric` (e.g.
 *     `database/w64C/core/epoch_engine/epochs`). The workload/config
 *     prefix is pushed by the sweep layer with ScopedLabel; library
 *     instrumentation only names its component-relative suffix via
 *     scopedPath().
 *
 * Wall-clock timers are collected like any other distribution but are
 * flagged non-deterministic; the JSON/CSV exporters exclude them by
 * default so result files stay bit-identical run to run (timing detail
 * belongs in the Chrome trace-events export, metrics/export.hh).
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.hh"

namespace mlpsim::metrics {

/** What a metric path holds (fixed at first touch, checked after). */
enum class MetricKind : uint8_t {
    Counter,   //!< monotonically added uint64
    Gauge,     //!< last-written double
    Stat,      //!< RunningStat distribution of doubles
    Hist,      //!< util Histogram over integer keys
    Timer,     //!< RunningStat of wall-clock seconds (non-deterministic)
};

const char *metricKindName(MetricKind kind);

/** One named metric's storage (a manual sum type keyed by `kind`). */
struct Metric
{
    MetricKind kind = MetricKind::Counter;
    uint64_t counter = 0;
    double gauge = 0.0;
    RunningStat stat;   //!< Stat and Timer kinds
    Histogram hist;

    /** Fold @p other of the same kind into this metric. */
    void merge(const Metric &other);
};

/** See file comment: the process-global collection switch. */
inline std::atomic<bool> g_metricsEnabled{false};

/** The compile-time-inlined guard every instrumentation site uses. */
inline bool
enabled()
{
    return g_metricsEnabled.load(std::memory_order_relaxed);
}

/** Flip collection on/off (call before spawning sweep threads). */
void setEnabled(bool on);

/**
 * Thread-safe registry of metrics keyed by their full label path.
 * Paths sort lexicographically in snapshots (std::map), giving the
 * exporters a canonical order for free.
 */
class MetricRegistry
{
  public:
    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    /** The process-wide registry snapshots are taken from. */
    static MetricRegistry &global();

    void add(const std::string &path, uint64_t delta = 1);
    void set(const std::string &path, double value);
    void observe(const std::string &path, double sample);
    void observeKey(const std::string &path, uint64_t key,
                    uint64_t weight = 1);
    void addTime(const std::string &path, double seconds);

    /**
     * Fold every metric of @p other into this registry. Determinism
     * contract: callers merge in submission order (SweepRunner
     * does), never in completion order.
     */
    void merge(const MetricRegistry &other);

    /** Ordered copy of the current contents. */
    std::map<std::string, Metric> snapshot() const;

    bool empty() const;
    void clear();

  private:
    Metric &upsert(const std::string &path, MetricKind kind);

    mutable std::mutex mutex;
    std::map<std::string, Metric> metrics;
};

/**
 * The thread's *current* registry: the global one by default, or a
 * job-private registry while a SweepRunner job runs with collection
 * on. All scopedPath()-style instrumentation goes through cur().
 */
MetricRegistry &cur();

/** Install @p registry as this thread's current (RAII). */
class CollectorScope
{
  public:
    explicit CollectorScope(MetricRegistry *registry);
    ~CollectorScope();

    CollectorScope(const CollectorScope &) = delete;
    CollectorScope &operator=(const CollectorScope &) = delete;

  private:
    MetricRegistry *prev;
};

/**
 * Push one `/`-separated label segment for the current thread; pops on
 * destruction. Nested scopes compose left to right:
 * ScopedLabel("database") + ScopedLabel("w64C") makes scopedPath("x")
 * return "database/w64C/x".
 */
class ScopedLabel
{
  public:
    explicit ScopedLabel(std::string segment);
    ~ScopedLabel();

    ScopedLabel(const ScopedLabel &) = delete;
    ScopedLabel &operator=(const ScopedLabel &) = delete;
};

/** @p suffix prefixed with the thread's current label scope. */
std::string scopedPath(std::string_view suffix);

/**
 * Records the wall-clock duration of its own lifetime into
 * cur()'s Timer metric at scopedPath(@p suffix). No-op (not even a
 * clock read) when collection is disabled at construction.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(std::string_view suffix);
    ~ScopedTimer();

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    std::string path; //!< empty = disabled at construction
    std::chrono::steady_clock::time_point start;
};

} // namespace mlpsim::metrics
