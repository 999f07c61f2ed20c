#include "factory.hh"

#include "util/logging.hh"
#include "util/rng.hh"
#include "workloads/database.hh"
#include "workloads/specjbb.hh"
#include "workloads/specweb.hh"

namespace mlpsim::workloads {

namespace {

template <typename Workload, typename Params>
std::unique_ptr<WorkloadBase>
makeSeeded(uint64_t seed)
{
    Params params;
    params.seed = seed;
    return std::make_unique<Workload>(params);
}

/** The commercial workload presets, in paper order; each preset's
 *  seed is its parameter struct's default. */
constexpr struct Preset
{
    const char *name;
    uint64_t seed;
    std::unique_ptr<WorkloadBase> (*make)(uint64_t seed);
} presets[] = {
    {"database", DatabaseParams{}.seed,
     &makeSeeded<DatabaseWorkload, DatabaseParams>},
    {"specjbb2000", SpecJbbParams{}.seed,
     &makeSeeded<SpecJbbWorkload, SpecJbbParams>},
    {"specweb99", SpecWebParams{}.seed,
     &makeSeeded<SpecWebWorkload, SpecWebParams>},
};

const Preset *
findPreset(const std::string &name)
{
    for (const Preset &preset : presets)
        if (name == preset.name)
            return &preset;
    return nullptr;
}

Status
unknownWorkload(const std::string &name)
{
    return Status::notFound("unknown workload '", name,
                            "' (expected database|specjbb2000|specweb99)");
}

} // namespace

const std::vector<std::string> &
commercialWorkloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const Preset &preset : presets)
            out.emplace_back(preset.name);
        return out;
    }();
    return names;
}

Expected<std::vector<std::string>>
selectWorkloads(const std::optional<std::string> &only)
{
    if (!only)
        return commercialWorkloadNames();
    if (!findPreset(*only))
        return unknownWorkload(*only);
    return std::vector<std::string>{*only};
}

uint64_t
presetSeed(const std::string &name)
{
    const Preset *preset = findPreset(name);
    return preset ? preset->seed : 0;
}

Expected<std::unique_ptr<WorkloadBase>>
tryMakeWorkload(const std::string &name, uint64_t seed)
{
    const Preset *preset = findPreset(name);
    if (!preset)
        return unknownWorkload(name);
    return preset->make(seed);
}

Expected<std::unique_ptr<WorkloadBase>>
tryMakeWorkload(const std::string &name)
{
    return tryMakeWorkload(name, presetSeed(name));
}

std::unique_ptr<WorkloadBase>
makeWorkload(const std::string &name)
{
    return tryMakeWorkload(name).orFatal();
}

std::unique_ptr<WorkloadBase>
makeWorkload(const std::string &name, uint64_t seed)
{
    return tryMakeWorkload(name, seed).orFatal();
}

uint64_t
workloadSeed(const std::string &name)
{
    return splitMix64(fnv1a64(name));
}

} // namespace mlpsim::workloads
