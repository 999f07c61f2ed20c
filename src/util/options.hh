/**
 * @file
 * Command-line option parsing for the bench, example and tool
 * binaries. Supports --name=value and --name value forms plus an
 * MLPSIM_SCALE environment variable that uniformly scales instruction
 * budgets so the whole suite can be made faster or more statistically
 * solid with one knob.
 *
 * Parsing and numeric conversion are strict: a positional argument, a
 * malformed flag, a typo'd flag name (via checkKnown()) or a value
 * that is not entirely a number of the requested type is diagnosed
 * instead of being silently ignored or default-swallowed. The
 * Status/Expected entry points (parse(), tryGetU64(), tryGetDouble(),
 * checkKnown()) report recoverably; the classic constructor and typed
 * getters are thin fatal()-on-error wrappers over them.
 */
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/status.hh"

namespace mlpsim {

struct JobLimits;

/** Parsed command-line options with typed, defaulted accessors. */
class Options
{
  public:
    /** fatal()-on-error wrapper around parse(). */
    Options(int argc, char **argv);

    /**
     * Parse @p argv and MLPSIM_SCALE. Fails on positional arguments,
     * empty flag names, and a malformed or non-positive MLPSIM_SCALE.
     */
    static Expected<Options> parse(int argc, char **argv);

    /**
     * Reject any flag not in @p known (catches --instz=100 typos that
     * would otherwise silently leave the default in force).
     */
    Status checkKnown(const std::vector<std::string> &known) const;

    /** fatal()-on-error wrapper around checkKnown(). */
    void rejectUnknown(const std::vector<std::string> &known) const;

    bool has(const std::string &name) const;
    std::string getString(const std::string &name,
                          const std::string &def) const;

    /** The flag's value, or nullopt when it was not given. */
    std::optional<std::string> find(const std::string &name) const;

    /** @p def if absent; error if present but not a full u64. */
    Expected<uint64_t> tryGetU64(const std::string &name,
                                 uint64_t def) const;

    /** @p def if absent; error if present but not a finite double. */
    Expected<double> tryGetDouble(const std::string &name,
                                  double def) const;

    /** fatal()-on-error wrappers around the try* getters. */
    uint64_t getU64(const std::string &name, uint64_t def) const;
    double getDouble(const std::string &name, double def) const;

    /**
     * Instruction budget helper: the default scaled by MLPSIM_SCALE
     * (if set) and overridable with --<name>=N.
     */
    Expected<uint64_t> tryScaledInsts(const std::string &name,
                                      uint64_t def) const;

    /** fatal()-on-error wrapper around tryScaledInsts(). */
    uint64_t scaledInsts(const std::string &name, uint64_t def) const;

  private:
    Options() = default;

    std::map<std::string, std::string> values;
    double scale = 1.0;
};

/**
 * The sweep job limits (util/parallel.hh) given by --deadline-ms
 * (default: none) and --retries (total attempts, default 1) — the one
 * parser of these flags for every bench and tool. Rejects a malformed
 * value, --retries 0 and a --retries that does not fit `unsigned`.
 */
Expected<JobLimits> parseJobLimits(const Options &opts);

/**
 * The sweep worker-thread count given by --jobs (default @p def; 0
 * means every hardware thread) — the one parser of this flag for
 * every bench and tool. Rejects a malformed value and one that does
 * not fit `unsigned`.
 */
Expected<unsigned> parseJobs(const Options &opts, uint64_t def);

} // namespace mlpsim
