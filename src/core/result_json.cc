#include "result_json.hh"

namespace mlpsim::core {

using metrics::JsonValue;

JsonValue
resultToJson(const MlpResult &r)
{
    JsonValue doc = JsonValue::object();
    doc.set("epochs", r.epochs);
    doc.set("useful_accesses", r.usefulAccesses);
    doc.set("dmiss_accesses", r.dmissAccesses);
    doc.set("imiss_accesses", r.imissAccesses);
    doc.set("pmiss_accesses", r.pmissAccesses);
    doc.set("smiss_accesses", r.smissAccesses);
    doc.set("measured_insts", r.measuredInsts);
    doc.set("mlp", r.mlp());

    JsonValue inhibitors = JsonValue::object();
    for (size_t i = 0; i < numInhibitors; ++i) {
        inhibitors.set(inhibitorName(static_cast<Inhibitor>(i)),
                       r.inhibitors.count[i]);
    }
    doc.set("inhibitors", std::move(inhibitors));

    JsonValue histogram = JsonValue::object();
    for (const auto &[accesses, epochs] : r.accessesPerEpoch.buckets())
        histogram.set(std::to_string(accesses), epochs);
    doc.set("accesses_per_epoch", std::move(histogram));
    return doc;
}

JsonValue
resultRecordToJson(const std::string &key, const MlpResult &result)
{
    JsonValue entry = JsonValue::object();
    entry.set("key", key);
    entry.set("epochs", result.epochs);
    entry.set("useful_accesses", result.usefulAccesses);
    entry.set("dmiss_accesses", result.dmissAccesses);
    entry.set("imiss_accesses", result.imissAccesses);
    entry.set("pmiss_accesses", result.pmissAccesses);
    entry.set("smiss_accesses", result.smissAccesses);
    entry.set("measured_insts", result.measuredInsts);

    JsonValue inhibitors = JsonValue::array();
    for (const uint64_t count : result.inhibitors.count)
        inhibitors.push(count);
    entry.set("inhibitors", std::move(inhibitors));

    JsonValue histogram = JsonValue::array();
    for (const auto &[bucket_key, weight] :
         result.accessesPerEpoch.buckets()) {
        JsonValue pair = JsonValue::array();
        pair.push(bucket_key);
        pair.push(weight);
        histogram.push(std::move(pair));
    }
    entry.set("accesses_per_epoch", std::move(histogram));
    return entry;
}

Status
resultRecordFromJson(const JsonValue &entry, std::string *key,
                     MlpResult *result)
{
    const auto getCount = [&entry](const char *name,
                                   uint64_t *out) -> Status {
        const JsonValue *field = entry.find(name);
        if (!field || !field->isUinteger())
            return Status::dataLoss("bad record field '", name, "'");
        *out = field->uinteger();
        return Status::okStatus();
    };

    const JsonValue *key_field = entry.find("key");
    if (!key_field || !key_field->isString())
        return Status::dataLoss("missing record field 'key'");
    *key = key_field->string();

    *result = MlpResult{};
    MLPSIM_RETURN_IF_ERROR(getCount("epochs", &result->epochs));
    MLPSIM_RETURN_IF_ERROR(
        getCount("useful_accesses", &result->usefulAccesses));
    MLPSIM_RETURN_IF_ERROR(
        getCount("dmiss_accesses", &result->dmissAccesses));
    MLPSIM_RETURN_IF_ERROR(
        getCount("imiss_accesses", &result->imissAccesses));
    MLPSIM_RETURN_IF_ERROR(
        getCount("pmiss_accesses", &result->pmissAccesses));
    MLPSIM_RETURN_IF_ERROR(
        getCount("smiss_accesses", &result->smissAccesses));
    MLPSIM_RETURN_IF_ERROR(
        getCount("measured_insts", &result->measuredInsts));

    const JsonValue *inhibitors = entry.find("inhibitors");
    if (!inhibitors || !inhibitors->isArray() ||
        inhibitors->size() != numInhibitors) {
        return Status::dataLoss("bad record field 'inhibitors'");
    }
    for (std::size_t i = 0; i < numInhibitors; ++i) {
        const JsonValue &count = inhibitors->items()[i];
        if (!count.isUinteger())
            return Status::dataLoss("bad record field 'inhibitors'");
        result->inhibitors.count[i] = count.uinteger();
    }

    const JsonValue *histogram = entry.find("accesses_per_epoch");
    if (!histogram || !histogram->isArray())
        return Status::dataLoss("bad record field 'accesses_per_epoch'");
    for (const JsonValue &pair : histogram->items()) {
        if (!pair.isArray() || pair.size() != 2 ||
            !pair.items()[0].isUinteger() ||
            !pair.items()[1].isUinteger()) {
            return Status::dataLoss(
                "bad record field 'accesses_per_epoch'");
        }
        result->accessesPerEpoch.add(pair.items()[0].uinteger(),
                                     pair.items()[1].uinteger());
    }
    return Status::okStatus();
}

} // namespace mlpsim::core
