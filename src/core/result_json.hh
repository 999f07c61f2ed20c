/**
 * @file
 * Shared JSON forms of MlpResult.
 *
 * Two serialisations exist, for two audiences:
 *
 *  - resultToJson(): the *presentation* form — named inhibitor
 *    categories, a derived "mlp" field, a readable histogram object.
 *    This is the per-cell document of the golden-results file and of
 *    every mlpsimd sweep-response row. It is a pure function of the
 *    result's integer fields (the single double, mlp, is one IEEE
 *    division), so identical results always serialise to identical
 *    bytes — the foundation of the service's byte-identical
 *    cache-hit guarantee.
 *
 *  - resultRecordToJson()/resultRecordFromJson(): the *storage* form —
 *    compact positional arrays keyed by a caller-chosen string. Every
 *    field round-trips exactly (integers only, no derived values), so
 *    a replayed record is indistinguishable from the original run.
 *    This is the payload format of the mlpsimd content-addressed
 *    result cache (service/result_cache.hh), which is also the sweep
 *    checkpoint journal of golden_check and sweep_faultinject.
 */
#pragma once

#include <string>

#include "core/mlp_result.hh"
#include "metrics/json.hh"
#include "util/status.hh"

namespace mlpsim::core {

/** Presentation form (golden results, sweep-response rows). */
metrics::JsonValue resultToJson(const MlpResult &result);

/** Storage form: @p key plus every field of @p result, exactly. */
metrics::JsonValue resultRecordToJson(const std::string &key,
                                      const MlpResult &result);

/**
 * Parse a storage-form record. DataLoss (never an abort) on any
 * missing or ill-typed field, so a corrupt-but-CRC-valid record costs
 * one recomputation, not the process.
 */
Status resultRecordFromJson(const metrics::JsonValue &entry,
                            std::string *key, MlpResult *result);

} // namespace mlpsim::core
