/**
 * @file
 * Name-based construction of the three commercial workloads, shared by
 * the benches and examples (every bench takes --workload=<name>).
 */
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/status.hh"
#include "workloads/workload_base.hh"

namespace mlpsim::workloads {

/** Names accepted by makeWorkload(), in paper order. */
const std::vector<std::string> &commercialWorkloadNames();

/**
 * The workloads a --workload flag selects, in paper order: every
 * commercial workload when @p only is nullopt (no flag), else just
 * *@p only. An unknown name is tryMakeWorkload()'s NotFound, so a typo
 * fails up front instead of filtering every workload out and printing
 * nothing.
 */
Expected<std::vector<std::string>>
selectWorkloads(const std::optional<std::string> &only);

/**
 * Construct a workload by name ("database", "specjbb2000",
 * "specweb99") whose generator Rng starts from @p seed. An unknown
 * name is a NotFound error listing the accepted names, so a sweep
 * over many workloads can skip and report rather than die.
 */
Expected<std::unique_ptr<WorkloadBase>>
tryMakeWorkload(const std::string &name, uint64_t seed);

/** tryMakeWorkload() at the preset's own seed, presetSeed(name). */
Expected<std::unique_ptr<WorkloadBase>>
tryMakeWorkload(const std::string &name);

/** fatal()-on-error wrapper around tryMakeWorkload(). */
std::unique_ptr<WorkloadBase> makeWorkload(const std::string &name);

/** fatal()-on-error wrapper around the seeded tryMakeWorkload(). */
std::unique_ptr<WorkloadBase> makeWorkload(const std::string &name,
                                           uint64_t seed);

/**
 * The seed a workload preset's parameter struct defaults to
 * (DatabaseParams::seed and its siblings); 0 for an unknown name.
 * Callers that build a trace at the preset's seed pass this value
 * explicitly, so the seed that made the trace is also the one they
 * record (e.g. in a result-cache cell key).
 */
uint64_t presetSeed(const std::string &name);

/**
 * The canonical per-workload trace seed: splitMix64 of an FNV-1a hash
 * of @p name. A pure function of the workload's *name*, so a trace is
 * bit-identical no matter where, in what order, or on which thread it
 * is materialised (the bench suite prepares workloads concurrently).
 */
uint64_t workloadSeed(const std::string &name);

} // namespace mlpsim::workloads
