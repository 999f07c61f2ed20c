#include "trace_cache.hh"

#include <cerrno>
#include <cstring>

#include <sys/stat.h>

#include "metrics/json.hh"
#include "service/wire.hh"
#include "trace/trace_io.hh"
#include "util/logging.hh"
#include "workloads/factory.hh"

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

} // namespace

std::string
TraceCache::Key::canonical() const
{
    metrics::JsonValue doc = metrics::JsonValue::object();
    doc.set("schema", "mlpsim-trace-key-v1");
    doc.set("workload", workload);
    doc.set("seed", seed);
    doc.set("warmup", warmup);
    doc.set("insts", insts);
    return doc.dump(0);
}

TraceCache::TraceCache(std::string spill_dir, size_t capacity,
                       uint32_t stream_chunk)
    : dir(std::move(spill_dir)),
      capacityLimit(capacity == 0 ? 1 : capacity),
      streamChunk(stream_chunk)
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
TraceCache::get(const Key &key)
{
    const std::string canonical = key.canonical();
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
    const uint64_t total = key.warmup + key.insts;
    auto prepared = std::make_shared<core::PreparedTrace>();
    bool from_disk = false;

    if (streamChunk != 0) {
        // Streamed mode: validate the workload up front (the source's
        // factory uses the fatal() maker and runs on sweep threads),
        // then annotate in one streaming pass — no buffer, no spill.
        if (auto probe = workloads::tryMakeWorkload(key.workload, key.seed);
            !probe.ok()) {
            Status bad = probe.status();
            return std::move(bad).withContext("preparing streamed trace");
        }
        const std::string workload = key.workload;
        const uint64_t seed = key.seed;
        prepared->source = std::make_unique<trace::GeneratedChunkSource>(
            workload, total,
            [workload, seed] {
                return workloads::makeWorkload(workload, seed);
            },
            streamChunk);
        core::AnnotationOptions options;
        options.warmupInsts = key.warmup;
        MLPSIM_ASSIGN_OR_RETURN(
            auto streamed,
            core::StreamingTrace::make(*prepared->source, options));
        prepared->streamed = std::make_unique<core::StreamingTrace>(
            std::move(streamed));

        std::lock_guard<std::mutex> lock(mutex);
        ++counters.builds;
        const auto it = index.find(canonical);
        if (it != index.end())
            return it->second->second;
        entries.emplace_front(canonical, prepared);
        index[canonical] = entries.begin();
        while (entries.size() > capacityLimit) {
            index.erase(entries.back().first);
            entries.pop_back();
        }
        return std::shared_ptr<const core::PreparedTrace>(prepared);
    }

    if (!dir.empty()) {
        auto loaded = trace::readTrace(spillPath(canonical));
        if (loaded.ok() && loaded->name() == key.workload &&
            loaded->size() == total) {
            prepared->buffer = std::make_unique<trace::TraceBuffer>(
                *std::move(loaded));
            from_disk = true;
        }
    }
    if (!from_disk) {
        MLPSIM_ASSIGN_OR_RETURN(
            auto generator,
            workloads::tryMakeWorkload(key.workload, key.seed));
        prepared->buffer =
            std::make_unique<trace::TraceBuffer>(key.workload);
        prepared->buffer->fill(*generator, total);
        if (!dir.empty()) {
            const Status spilled =
                trace::writeTrace(spillPath(canonical),
                                  *prepared->buffer);
            if (!spilled.ok())
                warn("trace cache: spill failed: ", spilled.toString());
        }
    }

    core::AnnotationOptions options;
    options.warmupInsts = key.warmup;
    MLPSIM_ASSIGN_OR_RETURN(
        auto annotated,
        core::AnnotatedTrace::make(*prepared->buffer, options));
    prepared->annotated =
        std::make_unique<core::AnnotatedTrace>(std::move(annotated));

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
    return std::shared_ptr<const core::PreparedTrace>(prepared);
}

TraceCache::Stats
TraceCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return counters;
}

} // namespace mlpsim::service
