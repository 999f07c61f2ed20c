#include "options.hh"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

#include "logging.hh"
#include "parallel.hh"

namespace mlpsim {

namespace {

/** Strict full-string u64 parse (rejects "", "12x", "-3", overflow). */
Expected<uint64_t>
parseU64(const std::string &text)
{
    if (text.empty() || text[0] == '-') {
        return Status::invalidArgument("'", text,
                                       "' is not an unsigned integer");
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed =
        std::strtoull(text.c_str(), &end, 0);
    if (end != text.c_str() + text.size() || end == text.c_str()) {
        return Status::invalidArgument("'", text,
                                       "' is not an unsigned integer");
    }
    if (errno == ERANGE) {
        return Status::outOfRange("'", text,
                                  "' overflows a 64-bit integer");
    }
    return uint64_t(parsed);
}

/** Strict full-string finite-double parse. */
Expected<double>
parseDouble(const std::string &text)
{
    if (text.empty())
        return Status::invalidArgument("empty value is not a number");
    errno = 0;
    char *end = nullptr;
    const double parsed = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || end == text.c_str())
        return Status::invalidArgument("'", text, "' is not a number");
    if (errno == ERANGE || !std::isfinite(parsed))
        return Status::outOfRange("'", text, "' is out of range");
    return parsed;
}

} // namespace

Options::Options(int argc, char **argv)
{
    *this = parse(argc, argv).orFatal();
}

Expected<Options>
Options::parse(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            return Status::invalidArgument(
                "unexpected positional argument '", arg, "'");
        }
        arg = arg.substr(2);
        const auto eq = arg.find('=');
        const std::string name =
            eq == std::string::npos ? arg : arg.substr(0, eq);
        if (name.empty()) {
            return Status::invalidArgument("malformed flag '", argv[i],
                                           "': empty flag name");
        }
        if (eq != std::string::npos) {
            opts.values[name] = arg.substr(eq + 1);
        } else if (i + 1 < argc && argv[i + 1][0] != '-') {
            opts.values[name] = argv[++i];
        } else {
            opts.values[name] = "1";
        }
    }
    if (const char *s = std::getenv("MLPSIM_SCALE")) {
        auto scale = parseDouble(s);
        if (!scale.ok()) {
            Status st = scale.status();
            return std::move(st).withContext("MLPSIM_SCALE");
        }
        if (*scale <= 0.0) {
            return Status::invalidArgument(
                "MLPSIM_SCALE must be positive, got '", s, "'");
        }
        opts.scale = *scale;
    }
    return opts;
}

Status
Options::checkKnown(const std::vector<std::string> &known) const
{
    for (const auto &[name, value] : values) {
        bool found = false;
        for (const auto &k : known)
            found = found || k == name;
        if (!found) {
            std::string accepted;
            for (const auto &k : known)
                accepted += (accepted.empty() ? "--" : " --") + k;
            return Status::invalidArgument("unknown flag '--", name,
                                           "' (accepted: ", accepted,
                                           ")");
        }
    }
    return Status::okStatus();
}

void
Options::rejectUnknown(const std::vector<std::string> &known) const
{
    checkKnown(known).orFatal();
}

bool
Options::has(const std::string &name) const
{
    return values.count(name) != 0;
}

std::string
Options::getString(const std::string &name, const std::string &def) const
{
    auto it = values.find(name);
    return it == values.end() ? def : it->second;
}

std::optional<std::string>
Options::find(const std::string &name) const
{
    auto it = values.find(name);
    if (it == values.end())
        return std::nullopt;
    return it->second;
}

Expected<uint64_t>
Options::tryGetU64(const std::string &name, uint64_t def) const
{
    auto it = values.find(name);
    if (it == values.end())
        return def;
    return parseU64(it->second).withContext("--", name);
}

Expected<double>
Options::tryGetDouble(const std::string &name, double def) const
{
    auto it = values.find(name);
    if (it == values.end())
        return def;
    return parseDouble(it->second).withContext("--", name);
}

uint64_t
Options::getU64(const std::string &name, uint64_t def) const
{
    return tryGetU64(name, def).orFatal();
}

double
Options::getDouble(const std::string &name, double def) const
{
    return tryGetDouble(name, def).orFatal();
}

Expected<uint64_t>
Options::tryScaledInsts(const std::string &name, uint64_t def) const
{
    if (has(name))
        return tryGetU64(name, def);
    return static_cast<uint64_t>(double(def) * scale);
}

uint64_t
Options::scaledInsts(const std::string &name, uint64_t def) const
{
    return tryScaledInsts(name, def).orFatal();
}

Expected<JobLimits>
parseJobLimits(const Options &opts)
{
    JobLimits limits;
    MLPSIM_ASSIGN_OR_RETURN(limits.deadlineMillis,
                            opts.tryGetDouble("deadline-ms", -1.0));
    MLPSIM_ASSIGN_OR_RETURN(uint64_t retries, opts.tryGetU64("retries", 1));
    if (retries == 0 || retries > UINT_MAX) {
        return Status::invalidArgument(
            "--retries=", retries, " must be between 1 and ", UINT_MAX,
            " (it counts total attempts)");
    }
    limits.maxAttempts = unsigned(retries);
    return limits;
}

Expected<unsigned>
parseJobs(const Options &opts, uint64_t def)
{
    MLPSIM_ASSIGN_OR_RETURN(uint64_t jobs, opts.tryGetU64("jobs", def));
    if (jobs > UINT_MAX) {
        return Status::invalidArgument("--jobs=", jobs, " must be at most ",
                                       UINT_MAX, " (0 = hardware threads)");
    }
    return unsigned(jobs);
}

} // namespace mlpsim
