#include "wire.hh"

#include <cstdio>

#include "core/result_json.hh"
#include "util/retry.hh"
#include "util/rng.hh"
#include "workloads/factory.hh"

namespace mlpsim::service {

using metrics::JsonValue;

namespace {

/** Wire spellings of CoreMode, in enum order. */
constexpr const char *modeNames[] = {
    "out-of-order",
    "in-order-stall-on-miss",
    "in-order-stall-on-use",
    "runahead",
};

Expected<core::CoreMode>
parseMode(const std::string &text)
{
    for (unsigned i = 0; i < 4; ++i) {
        if (text == modeNames[i])
            return static_cast<core::CoreMode>(i);
    }
    return Status::invalidArgument(
        "unknown mode '", text,
        "' (accepted: out-of-order, in-order-stall-on-miss, "
        "in-order-stall-on-use, runahead)");
}

Expected<core::IssueConfig>
parseIssue(const std::string &text)
{
    if (text.size() == 1 && text[0] >= 'A' && text[0] <= 'E')
        return static_cast<core::IssueConfig>(text[0] - 'A');
    return Status::invalidArgument("unknown issue config '", text,
                                   "' (accepted: A..E)");
}

/** Fetch a required/optional unsigned member with type checking. */
Status
getUint(const JsonValue &doc, const char *name, bool required,
        uint64_t *out)
{
    const JsonValue *field = doc.find(name);
    if (!field) {
        if (required)
            return Status::invalidArgument("missing field '", name, "'");
        return Status::okStatus();
    }
    if (!field->isNumber() || field->number() < 0.0)
        return Status::invalidArgument("field '", name,
                                       "' must be a non-negative "
                                       "integer");
    *out = field->uinteger();
    return Status::okStatus();
}

/** The one cell-key builder both public overloads share. */
std::string
canonicalCellKey(const std::string &workload, uint64_t seed,
                 uint64_t warmup, uint64_t insts,
                 const core::MlpConfig &config)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", "mlpsim-sweep-cell-v1");
    doc.set("workload", workload);
    doc.set("seed", seed);
    doc.set("warmup", warmup);
    doc.set("insts", insts);
    doc.set("config", configToJson(config));
    return doc.dump(0);
}

} // namespace

JsonValue
configToJson(const core::MlpConfig &config)
{
    // Fixed member order: this document *is* the cache identity of a
    // machine, so the order may never depend on how the config was
    // described.
    JsonValue doc = JsonValue::object();
    doc.set("mode", modeNames[static_cast<unsigned>(config.mode)]);
    doc.set("issue", core::issueConfigName(config.issue));
    doc.set("fetch", static_cast<uint64_t>(config.fetchBufferSize));
    doc.set("window", static_cast<uint64_t>(config.issueWindowSize));
    doc.set("rob", static_cast<uint64_t>(config.robSize));
    doc.set("runahead",
            static_cast<uint64_t>(config.maxRunaheadDistance));
    doc.set("horizon", static_cast<uint64_t>(config.epochInstHorizon));
    doc.set("vp", config.valuePrediction);
    doc.set("sb", config.finiteStoreBuffer);
    return doc;
}

Expected<core::MlpConfig>
configFromJson(const JsonValue &doc)
{
    if (!doc.isObject())
        return Status::invalidArgument("config must be an object");

    core::MlpConfig config; // wire defaults = MlpConfig defaults

    for (const auto &[key, value] : doc.members()) {
        if (key == "name") {
            // Presentation-only; the request parser reads it.
            if (!value.isString())
                return Status::invalidArgument(
                    "config field 'name' must be a string");
            continue;
        }
        if (key == "mode") {
            if (!value.isString())
                return Status::invalidArgument(
                    "config field 'mode' must be a string");
            MLPSIM_ASSIGN_OR_RETURN(config.mode,
                                    parseMode(value.string()));
            continue;
        }
        if (key == "issue") {
            if (!value.isString())
                return Status::invalidArgument(
                    "config field 'issue' must be a string");
            MLPSIM_ASSIGN_OR_RETURN(config.issue,
                                    parseIssue(value.string()));
            continue;
        }
        if (key == "vp" || key == "sb") {
            if (!value.isBool())
                return Status::invalidArgument("config field '", key,
                                               "' must be a boolean");
            (key == "vp" ? config.valuePrediction
                         : config.finiteStoreBuffer) = value.boolean();
            continue;
        }

        unsigned *target = nullptr;
        if (key == "fetch")
            target = &config.fetchBufferSize;
        else if (key == "window")
            target = &config.issueWindowSize;
        else if (key == "rob")
            target = &config.robSize;
        else if (key == "runahead")
            target = &config.maxRunaheadDistance;
        else if (key == "horizon")
            target = &config.epochInstHorizon;
        else
            return Status::invalidArgument("unknown config field '",
                                           key, "'");

        if (!value.isNumber() || value.number() < 0.0 ||
            value.number() > 4294967295.0) {
            return Status::invalidArgument("config field '", key,
                                           "' must be a u32");
        }
        *target = static_cast<unsigned>(value.uinteger());
    }
    return config;
}

Expected<SweepRequest>
parseSweepRequest(const JsonValue &doc, uint64_t max_insts)
{
    if (!doc.isObject())
        return Status::invalidArgument("request must be a JSON object");

    const JsonValue *schema = doc.find("schema");
    if (!schema || !schema->isString() ||
        schema->string() != sweepRequestSchema) {
        return Status::invalidArgument("request schema must be '",
                                       sweepRequestSchema, "'");
    }

    SweepRequest request;

    if (const JsonValue *id = doc.find("id")) {
        if (!id->isString())
            return Status::invalidArgument("field 'id' must be a string");
        request.id = id->string();
    }

    const JsonValue *workload = doc.find("workload");
    if (!workload || !workload->isString())
        return Status::invalidArgument(
            "missing or non-string field 'workload'");
    request.workload = workload->string();

    bool known = false;
    std::string accepted;
    for (const std::string &name :
         workloads::commercialWorkloadNames()) {
        known = known || name == request.workload;
        accepted += accepted.empty() ? name : ", " + name;
    }
    if (!known) {
        return Status::notFound("unknown workload '", request.workload,
                                "' (accepted: ", accepted, ")");
    }

    request.seed = workloads::workloadSeed(request.workload);
    MLPSIM_RETURN_IF_ERROR(getUint(doc, "seed", false, &request.seed));
    MLPSIM_RETURN_IF_ERROR(
        getUint(doc, "warmup", false, &request.warmup));
    MLPSIM_RETURN_IF_ERROR(getUint(doc, "insts", true, &request.insts));
    if (request.insts == 0)
        return Status::invalidArgument("field 'insts' must be >= 1");
    if (max_insts != 0 && request.warmup + request.insts > max_insts) {
        return Status::outOfRange(
            "warmup + insts = ", request.warmup + request.insts,
            " exceeds this daemon's --max-insts ", max_insts);
    }

    if (const JsonValue *deadline = doc.find("deadline_ms")) {
        if (!deadline->isNumber())
            return Status::invalidArgument(
                "field 'deadline_ms' must be a number");
        request.deadlineMillis = deadline->number();
    }
    uint64_t retries = 0;
    MLPSIM_RETURN_IF_ERROR(getUint(doc, "retries", false, &retries));
    request.maxAttempts = static_cast<unsigned>(retries) + 1;

    const JsonValue *configs = doc.find("configs");
    if (!configs || !configs->isArray() || configs->size() == 0) {
        return Status::invalidArgument(
            "field 'configs' must be a non-empty array");
    }
    for (size_t i = 0; i < configs->size(); ++i) {
        const JsonValue &entry = configs->items()[i];
        auto parsed = configFromJson(entry);
        if (!parsed.ok()) {
            Status st = parsed.status();
            return std::move(st).withContext("configs[", i, "]");
        }
        RequestConfig rc;
        rc.config = *parsed;
        rc.config.warmupInsts = request.warmup;
        if (const JsonValue *name = entry.find("name"))
            rc.name = name->string();
        else
            rc.name = rc.config.label();
        MLPSIM_RETURN_IF_ERROR(
            rc.config.validate().withContext("configs[", i, "] ('",
                                             rc.name, "')"));
        request.configs.push_back(std::move(rc));
    }
    return request;
}

std::string
cellKey(const SweepRequest &request, const core::MlpConfig &config)
{
    return canonicalCellKey(request.workload, request.seed,
                            request.warmup, request.insts, config);
}

std::string
cellKey(const core::TraceSpec &trace, const core::MlpConfig &config)
{
    const uint64_t warmup = trace.annotation.warmupInsts;
    return canonicalCellKey(trace.workload, trace.seed, warmup,
                            trace.totalInsts - warmup, config);
}

std::string
contentHash(std::string_view text)
{
    char out[17];
    std::snprintf(out, sizeof out, "%016llx",
                  static_cast<unsigned long long>(
                      splitMix64(fnv1a64(text))));
    return out;
}

std::string
requestHash(const SweepRequest &request)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", sweepRequestSchema);
    doc.set("workload", request.workload);
    doc.set("seed", request.seed);
    doc.set("warmup", request.warmup);
    doc.set("insts", request.insts);
    JsonValue configs = JsonValue::array();
    for (const RequestConfig &rc : request.configs)
        configs.push(configToJson(rc.config));
    doc.set("configs", std::move(configs));
    return contentHash(doc.dump(0));
}

JsonValue
makeOkResponse(const SweepRequest &request,
               const std::vector<ResponseRow> &rows)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", sweepResponseSchema);
    doc.set("id", request.id);
    doc.set("request_hash", requestHash(request));
    doc.set("status", "ok");
    JsonValue results = JsonValue::array();
    for (const ResponseRow &row : rows) {
        JsonValue entry = JsonValue::object();
        entry.set("config", row.config);
        const JsonValue fields = core::resultToJson(row.result);
        for (const auto &[key, value] : fields.members())
            entry.set(key, value);
        results.push(std::move(entry));
    }
    doc.set("results", std::move(results));
    return doc;
}

JsonValue
makeErrorResponse(const std::string &id,
                  const std::string &request_hash, const Status &error)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", sweepResponseSchema);
    doc.set("id", id);
    doc.set("request_hash", request_hash);
    doc.set("status", "error");
    JsonValue detail = JsonValue::object();
    detail.set("code", errorCodeName(error.code()));
    detail.set("class", failureClassName(failureClass(error.code())));
    detail.set("message", error.message());
    doc.set("error", std::move(detail));
    return doc;
}

Status
validateSweepResponse(const JsonValue &doc)
{
    if (!doc.isObject())
        return Status::invalidArgument("response must be a JSON object");
    const JsonValue *schema = doc.find("schema");
    if (!schema || !schema->isString() ||
        schema->string() != sweepResponseSchema) {
        return Status::invalidArgument("response schema must be '",
                                       sweepResponseSchema, "'");
    }
    const JsonValue *id = doc.find("id");
    if (!id || !id->isString())
        return Status::invalidArgument("missing string field 'id'");
    const JsonValue *hash = doc.find("request_hash");
    if (!hash || !hash->isString())
        return Status::invalidArgument(
            "missing string field 'request_hash'");

    const JsonValue *status = doc.find("status");
    if (!status || !status->isString())
        return Status::invalidArgument("missing string field 'status'");

    if (status->string() == "error") {
        const JsonValue *error = doc.find("error");
        if (!error || !error->isObject())
            return Status::invalidArgument(
                "error response lacks an 'error' object");
        for (const char *field : {"code", "class", "message"}) {
            const JsonValue *member = error->find(field);
            if (!member || !member->isString())
                return Status::invalidArgument(
                    "error object lacks string field '", field, "'");
        }
        return Status::okStatus();
    }
    if (status->string() != "ok")
        return Status::invalidArgument("status must be 'ok' or "
                                       "'error', got '",
                                       status->string(), "'");

    const JsonValue *results = doc.find("results");
    if (!results || !results->isArray() || results->size() == 0) {
        return Status::invalidArgument(
            "ok response lacks a non-empty 'results' array");
    }
    for (size_t i = 0; i < results->size(); ++i) {
        const JsonValue &row = results->items()[i];
        if (!row.isObject())
            return Status::invalidArgument("results[", i,
                                           "] is not an object");
        const JsonValue *config = row.find("config");
        if (!config || !config->isString())
            return Status::invalidArgument(
                "results[", i, "] lacks string field 'config'");
        for (const char *field :
             {"epochs", "useful_accesses", "dmiss_accesses",
              "imiss_accesses", "pmiss_accesses", "smiss_accesses",
              "measured_insts", "mlp"}) {
            const JsonValue *member = row.find(field);
            if (!member || !member->isNumber())
                return Status::invalidArgument(
                    "results[", i, "] lacks numeric field '", field,
                    "'");
        }
        for (const char *field : {"inhibitors", "accesses_per_epoch"}) {
            const JsonValue *member = row.find(field);
            if (!member || !member->isObject())
                return Status::invalidArgument(
                    "results[", i, "] lacks object field '", field,
                    "'");
        }
    }
    return Status::okStatus();
}

JsonValue
makeEvent(const std::string &kind)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", sweepEventSchema);
    doc.set("event", kind);
    return doc;
}

JsonValue
makePlannedEvent(const std::string &id, uint64_t cells, uint64_t hits,
                 uint64_t computed)
{
    JsonValue doc = makeEvent("planned");
    doc.set("id", id);
    doc.set("cells", cells);
    doc.set("hits", hits);
    doc.set("computed", computed);
    return doc;
}

JsonValue
makeCellDoneEvent(const std::string &label)
{
    JsonValue doc = makeEvent("cell-done");
    doc.set("label", label);
    return doc;
}

} // namespace mlpsim::service
