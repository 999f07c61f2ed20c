#include "trace_cache.hh"

#include "metrics/json.hh"

namespace mlpsim::service {

namespace {

/** Canonical JSON form of @p spec's trace identity: the map key. */
std::string
traceKey(const core::TraceSpec &spec)
{
    metrics::JsonValue doc = metrics::JsonValue::object();
    doc.set("schema", "mlpsim-trace-key-v1");
    doc.set("workload", spec.workload);
    doc.set("seed", spec.seed);
    doc.set("warmup", spec.annotation.warmupInsts);
    doc.set("insts", spec.totalInsts - spec.annotation.warmupInsts);
    return doc.dump(0);
}

} // namespace

TraceCache::TraceCache(size_t capacity)
    : capacityLimit(capacity == 0 ? 1 : capacity)
{
}

Expected<std::shared_ptr<const core::PreparedTrace>>
TraceCache::get(const core::TraceSpec &spec)
{
    const std::string canonical = traceKey(spec);
    {
        std::lock_guard<std::mutex> lock(mutex);
        const auto it = index.find(canonical);
        if (it != index.end()) {
            entries.splice(entries.begin(), entries, it->second);
            ++counters.memoryHits;
            return it->second->second;
        }
    }

    // Prepare outside the lock: generation takes seconds, and two
    // requests wanting *different* traces must not serialise. A rare
    // concurrent double-build of the same key costs time only — both
    // products are bit-identical, and the first insert keeps the LRU
    // slot.
    auto built = core::PreparedTrace::make(spec);
    if (!built.ok())
        return built.status();
    auto prepared =
        std::make_shared<const core::PreparedTrace>(*std::move(built));

    std::lock_guard<std::mutex> lock(mutex);
    ++counters.builds;
    const auto it = index.find(canonical);
    if (it != index.end())
        return it->second->second; // lost a build race; reuse theirs
    entries.emplace_front(canonical, prepared);
    index[canonical] = entries.begin();
    while (entries.size() > capacityLimit) {
        index.erase(entries.back().first);
        entries.pop_back();
    }
    return prepared;
}

bool
TraceCache::contains(const core::TraceSpec &spec) const
{
    const std::string canonical = traceKey(spec);
    std::lock_guard<std::mutex> lock(mutex);
    return index.count(canonical) != 0;
}

TraceCache::Stats
TraceCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return counters;
}

} // namespace mlpsim::service
