#include "registry.hh"

#include "util/logging.hh"

namespace mlpsim::metrics {

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Gauge:
        return "gauge";
      case MetricKind::Stat:
        return "stat";
      case MetricKind::Hist:
        return "histogram";
      case MetricKind::Timer:
        return "timer";
    }
    return "?";
}

void
Metric::merge(const Metric &other)
{
    MLPSIM_ASSERT(kind == other.kind, "merging ",
                  metricKindName(other.kind), " into ",
                  metricKindName(kind));
    switch (kind) {
      case MetricKind::Counter:
        counter += other.counter;
        break;
      case MetricKind::Gauge:
        // Last write wins; merge order is submission order, so the
        // outcome matches what serial execution would have left.
        gauge = other.gauge;
        break;
      case MetricKind::Stat:
      case MetricKind::Timer:
        stat.merge(other.stat);
        break;
      case MetricKind::Hist:
        hist.merge(other.hist);
        break;
    }
}

void
setEnabled(bool on)
{
    g_metricsEnabled.store(on, std::memory_order_relaxed);
}

MetricRegistry &
MetricRegistry::global()
{
    static MetricRegistry registry;
    return registry;
}

Metric &
MetricRegistry::upsert(const std::string &path, MetricKind kind)
{
    auto [it, inserted] = metrics.try_emplace(path);
    if (inserted) {
        it->second.kind = kind;
    } else {
        MLPSIM_ASSERT(it->second.kind == kind, "metric '", path,
                      "' used as ", metricKindName(kind),
                      " but registered as ",
                      metricKindName(it->second.kind));
    }
    return it->second;
}

void
MetricRegistry::add(const std::string &path, uint64_t delta)
{
    std::lock_guard<std::mutex> lock(mutex);
    upsert(path, MetricKind::Counter).counter += delta;
}

void
MetricRegistry::set(const std::string &path, double value)
{
    std::lock_guard<std::mutex> lock(mutex);
    upsert(path, MetricKind::Gauge).gauge = value;
}

void
MetricRegistry::observe(const std::string &path, double sample)
{
    std::lock_guard<std::mutex> lock(mutex);
    upsert(path, MetricKind::Stat).stat.add(sample);
}

void
MetricRegistry::observeKey(const std::string &path, uint64_t key,
                           uint64_t weight)
{
    std::lock_guard<std::mutex> lock(mutex);
    upsert(path, MetricKind::Hist).hist.add(key, weight);
}

void
MetricRegistry::addTime(const std::string &path, double seconds)
{
    std::lock_guard<std::mutex> lock(mutex);
    upsert(path, MetricKind::Timer).stat.add(seconds);
}

void
MetricRegistry::merge(const MetricRegistry &other)
{
    // Registries are merged child-into-global; a registry never merges
    // into itself, so ordering the two locks is not needed beyond the
    // child being private to this call path by contract.
    MLPSIM_ASSERT(&other != this, "registry merged into itself");
    std::lock_guard<std::mutex> other_lock(other.mutex);
    std::lock_guard<std::mutex> lock(mutex);
    for (const auto &[path, metric] : other.metrics) {
        auto [it, inserted] = metrics.try_emplace(path, metric);
        if (!inserted)
            it->second.merge(metric);
    }
}

std::map<std::string, Metric>
MetricRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return metrics;
}

bool
MetricRegistry::empty() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return metrics.empty();
}

void
MetricRegistry::clear()
{
    std::lock_guard<std::mutex> lock(mutex);
    metrics.clear();
}

// ----- thread-local collection context -----------------------------

namespace {

thread_local MetricRegistry *t_current = nullptr;
thread_local std::vector<std::string> t_labels;

} // namespace

MetricRegistry &
cur()
{
    return t_current ? *t_current : MetricRegistry::global();
}

CollectorScope::CollectorScope(MetricRegistry *registry) : prev(t_current)
{
    t_current = registry;
}

CollectorScope::~CollectorScope()
{
    t_current = prev;
}

ScopedLabel::ScopedLabel(std::string segment)
{
    t_labels.push_back(std::move(segment));
}

ScopedLabel::~ScopedLabel()
{
    t_labels.pop_back();
}

std::string
scopedPath(std::string_view suffix)
{
    std::string path;
    for (const auto &segment : t_labels) {
        path += segment;
        path += '/';
    }
    path += suffix;
    return path;
}

ScopedTimer::ScopedTimer(std::string_view suffix)
{
    if (!enabled())
        return;
    path = scopedPath(suffix);
    start = std::chrono::steady_clock::now();
}

ScopedTimer::~ScopedTimer()
{
    if (path.empty())
        return;
    const auto end = std::chrono::steady_clock::now();
    cur().addTime(path,
                  std::chrono::duration<double>(end - start).count());
}

} // namespace mlpsim::metrics
