/**
 * @file
 * JSON wire schemas of the mlpsimd sweep service, and the
 * content-addressing scheme its caches key on.
 *
 * Four document kinds flow over the framed stream (service/framing.hh):
 *
 *  - `mlpsim-sweep-request-v1` (client → daemon): one workload, an
 *    instruction budget, and a list of machine configurations to
 *    simulate over the workload's trace.
 *  - `mlpsim-sweep-response-v1` (daemon → client): one per request, in
 *    request order. Either status "ok" with a per-config result row
 *    (the presentation form of core/result_json.hh), or status
 *    "error" with the failure's code, PR 6 FailureClass bucket, and
 *    message. Response bodies are a pure function of the request
 *    content — no timestamps, no served-from-cache flags — which is
 *    what makes a cache hit byte-identical to the cold computation it
 *    replays.
 *  - `mlpsim-sweep-event-v1` (daemon → client, optional): progress
 *    frames interleaved with responses — "planned" (how many cells a
 *    request needs and how many the cache already had) and
 *    "cell-done" (a cell finished computing, streamed live from the
 *    runner's job-end callback).
 *  - `mlpsim-sweep-control-v1` (client → daemon): "ping" (answered
 *    with a "pong" event) and "shutdown" (daemon drains and exits).
 *
 * Content addressing: a *cell* is one (workload, seed, warmup, insts,
 * config) simulation. Its identity is the canonical cell-key JSON —
 * fixed member order, compact dump — produced by cellKey(). Cache maps
 * are keyed by this full string (collision-proof); contentHash() (16
 * hex chars of splitMix64 ∘ FNV-1a) is the short stable token of the
 * canonical request JSON, echoed as request_hash in responses. Presentation-only fields (the
 * config's display name, the request id, deadlines/retries) are
 * excluded from keys, so renaming a config or retuning limits still
 * hits the cache.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/mlp_config.hh"
#include "core/mlp_result.hh"
#include "core/trace_pipeline.hh"
#include "metrics/json.hh"
#include "util/status.hh"

namespace mlpsim::service {

// Schema identifiers, exactly as they appear on the wire.
inline constexpr const char *sweepRequestSchema =
    "mlpsim-sweep-request-v1";
inline constexpr const char *sweepResponseSchema =
    "mlpsim-sweep-response-v1";
inline constexpr const char *sweepEventSchema = "mlpsim-sweep-event-v1";
inline constexpr const char *sweepControlSchema =
    "mlpsim-sweep-control-v1";

/** One machine configuration of a request, with its display name. */
struct RequestConfig
{
    std::string name;       //!< presentation label (default: label())
    core::MlpConfig config; //!< validated machine description
};

/** A parsed, validated sweep request. */
struct SweepRequest
{
    std::string id;       //!< client correlation token, echoed back
    std::string workload; //!< commercial workload name
    uint64_t seed = 0;    //!< trace seed (default: workloadSeed())
    uint64_t warmup = 0;  //!< instructions excluded from statistics
    uint64_t insts = 0;   //!< measured instructions (≥ 1)

    double deadlineMillis = -1.0; //!< per-cell deadline; < 0 = none
    unsigned maxAttempts = 1;     //!< per-cell attempts (1 = no retry)

    std::vector<RequestConfig> configs; //!< non-empty
};

/**
 * Parse and validate a request document. Errors are classified, never
 * fatal: wrong schema / malformed shape → InvalidArgument, unknown
 * workload → NotFound (listing accepted names), inconsistent machine
 * description → the MlpConfig::validate() error. @p max_insts caps
 * warmup+insts (daemon resource guard); 0 = uncapped.
 */
Expected<SweepRequest> parseSweepRequest(const metrics::JsonValue &doc,
                                         uint64_t max_insts = 0);

/** Canonical wire form of a machine configuration (fixed key order). */
metrics::JsonValue configToJson(const core::MlpConfig &config);

/**
 * Parse a wire config object. Unknown members are rejected; absent
 * members keep their MlpConfig defaults, so a request can say just
 * {"window": 128} and mean "the default machine at 128 entries".
 * The result is not yet validate()d — parseSweepRequest() does that.
 */
Expected<core::MlpConfig> configFromJson(const metrics::JsonValue &doc);

/** Canonical cell-key JSON for one (request, config) simulation. */
std::string cellKey(const SweepRequest &request,
                    const core::MlpConfig &config);

/**
 * The same key for @p config simulated over the trace @p trace names
 * (its workload, seed, warm-up and measured budget, and its
 * annotation): how the tools that resume a sweep from a ResultCache
 * key their cells. An annotation other than AnnotationOptions{}
 * (warm-up aside) adds a fixed-order "annotation" member — hierarchy,
 * branch and value predictor configs and buildValues — so an L2-size
 * or perfect-predictor variant is another cell. Under the default
 * annotation a cell keyed here and the daemon cell of the matching
 * request have equal keys.
 */
std::string cellKey(const core::TraceSpec &trace,
                    const core::MlpConfig &config);

/** 16-hex-char content fingerprint (splitMix64 ∘ FNV-1a) of @p text. */
std::string contentHash(std::string_view text);

/**
 * The request's content fingerprint: contentHash() of the canonical
 * request JSON (workload/seed/budget/configs — id, deadline and
 * retries excluded). Echoed as "request_hash" in every response so a
 * client can pair duplicates without trusting its own bookkeeping.
 */
std::string requestHash(const SweepRequest &request);

/** One computed result row: display name + its result. */
struct ResponseRow
{
    std::string config; //!< RequestConfig::name
    core::MlpResult result;
};

/** Build a status:"ok" response (rows in request config order). */
metrics::JsonValue makeOkResponse(const SweepRequest &request,
                                  const std::vector<ResponseRow> &rows);

/**
 * Build a status:"error" response carrying @p error's code, its
 * FailureClass bucket, and message. @p id / @p request_hash may be
 * empty when the request never parsed far enough to have them.
 */
metrics::JsonValue makeErrorResponse(const std::string &id,
                                     const std::string &request_hash,
                                     const Status &error);

/**
 * Structural validation of a response document (the metrics_check
 * --kind sweep-response contract): schema, status, a well-formed
 * error object or result rows with every presentation field.
 */
Status validateSweepResponse(const metrics::JsonValue &doc);

/** Progress-event constructors (doc comments: file comment above). */
metrics::JsonValue makePlannedEvent(const std::string &id,
                                    uint64_t cells, uint64_t hits,
                                    uint64_t computed);
metrics::JsonValue makeCellDoneEvent(const std::string &label);
metrics::JsonValue makeEvent(const std::string &kind);

} // namespace mlpsim::service
