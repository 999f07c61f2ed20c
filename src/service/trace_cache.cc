#include "trace_cache.hh"

#include <cerrno>
#include <cstring>

#include <sys/stat.h>

#include "metrics/json.hh"
#include "service/wire.hh"
#include "trace/trace_io.hh"
#include "util/logging.hh"

namespace mlpsim::service {

namespace {

/** Best-effort directory creation; existing directory is success. */
bool
ensureDirectory(const std::string &path)
{
    if (::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST)
        return true;
    warn("trace cache: cannot create spill directory '", path,
         "': ", std::strerror(errno), "; spill disabled");
    return false;
}

/** Canonical JSON form of @p spec's trace identity: the map key,
 *  and the hash input that names spill files. */
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

TraceCache::TraceCache(std::string spill_dir, size_t capacity)
    : dir(std::move(spill_dir)), capacityLimit(capacity == 0 ? 1 : capacity)
{
    if (!dir.empty() && !ensureDirectory(dir))
        dir.clear();
}

std::string
TraceCache::spillPath(const std::string &canonical) const
{
    return dir + "/trace_" + contentHash(canonical) + ".mlpt";
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
    // products are bit-identical, and the second insert wins the LRU
    // slot.
    const bool spill = !dir.empty() && spec.streamChunk == 0;
    bool from_disk = false;
    auto built = [&]() -> Expected<core::PreparedTrace> {
        if (spill) {
            auto loaded = trace::readTrace(spillPath(canonical));
            if (loaded.ok() && loaded->name() == spec.workload &&
                loaded->size() == spec.totalInsts) {
                from_disk = true;
                return core::PreparedTrace::make(spec, *std::move(loaded));
            }
        }
        return core::PreparedTrace::make(spec);
    }();
    if (!built.ok())
        return built.status();
    auto prepared =
        std::make_shared<const core::PreparedTrace>(*std::move(built));
    if (spill && !from_disk) {
        const Status spilled =
            trace::writeTrace(spillPath(canonical), *prepared->buffer());
        if (!spilled.ok())
            warn("trace cache: spill failed: ", spilled.toString());
    }

    std::lock_guard<std::mutex> lock(mutex);
    if (from_disk)
        ++counters.diskHits;
    else
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

TraceCache::Stats
TraceCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return counters;
}

} // namespace mlpsim::service
