/**
 * @file
 * Wire-layer tests for the mlpsimd sweep service: request parsing and
 * its classified rejections, the canonical cell-key / content-hash
 * scheme the caches are addressed by, and response construction. The
 * keying tests pin the property the whole service stands on — that
 * presentation-only fields (config names, request ids, deadlines)
 * never reach a cache key, while every simulation-relevant knob does.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "metrics/json.hh"
#include "service/wire.hh"
#include "util/status.hh"

namespace mlpsim::service {
namespace {

using metrics::JsonValue;

JsonValue
parseJson(const std::string &text)
{
    auto doc = JsonValue::parse(text);
    EXPECT_TRUE(doc.ok()) << doc.status().toString();
    return *std::move(doc);
}

const char *kMinimalRequest = R"({
    "schema": "mlpsim-sweep-request-v1",
    "id": "req-1",
    "workload": "database",
    "warmup": 100,
    "insts": 1000,
    "configs": [{}]
})";

TEST(SweepRequestTest, MinimalRequestUsesDefaults)
{
    auto request = parseSweepRequest(parseJson(kMinimalRequest));
    ASSERT_TRUE(request.ok()) << request.status().toString();
    EXPECT_EQ(request->id, "req-1");
    EXPECT_EQ(request->workload, "database");
    EXPECT_EQ(request->warmup, 100u);
    EXPECT_EQ(request->insts, 1000u);
    EXPECT_LT(request->deadlineMillis, 0.0);
    EXPECT_EQ(request->maxAttempts, 1u);
    ASSERT_EQ(request->configs.size(), 1u);
    // An empty config object means the default machine, named by its
    // own label.
    EXPECT_EQ(request->configs[0].name,
              request->configs[0].config.label());
    EXPECT_NE(request->seed, 0u); // workloadSeed("database")
}

TEST(SweepRequestTest, WrongSchemaIsInvalidArgument)
{
    JsonValue doc = parseJson(kMinimalRequest);
    doc.set("schema", "mlpsim-sweep-response-v1");
    auto request = parseSweepRequest(doc);
    ASSERT_FALSE(request.ok());
    EXPECT_EQ(request.status().code(), ErrorCode::InvalidArgument);
}

TEST(SweepRequestTest, UnknownWorkloadIsNotFound)
{
    JsonValue doc = parseJson(kMinimalRequest);
    doc.set("workload", "nonesuch");
    auto request = parseSweepRequest(doc);
    ASSERT_FALSE(request.ok());
    EXPECT_EQ(request.status().code(), ErrorCode::NotFound);
    // The rejection lists the accepted names.
    EXPECT_NE(request.status().toString().find("database"),
              std::string::npos);
}

TEST(SweepRequestTest, ZeroInstsIsRejected)
{
    JsonValue doc = parseJson(kMinimalRequest);
    doc.set("insts", 0);
    EXPECT_FALSE(parseSweepRequest(doc).ok());
}

TEST(SweepRequestTest, RetriesCountExtraAttemptsAndMustFit)
{
    JsonValue doc = parseJson(kMinimalRequest);
    doc.set("retries", uint64_t(4294967294));
    auto request = parseSweepRequest(doc);
    ASSERT_TRUE(request.ok()) << request.status().toString();
    EXPECT_EQ(request->maxAttempts, 4294967295u);

    // One more would wrap the attempt count to 0.
    doc.set("retries", uint64_t(4294967295));
    request = parseSweepRequest(doc);
    ASSERT_FALSE(request.ok());
    EXPECT_EQ(request.status().code(), ErrorCode::InvalidArgument);
}

TEST(SweepRequestTest, NonIntegerCountsAreRejectedNotFatal)
{
    // A fraction or an integer beyond uint64 parses as a JSON double;
    // each must come back as a classified rejection.
    for (const char *field : {"retries", "seed", "warmup", "insts"}) {
        for (const double value : {1.5, 1e20}) {
            SCOPED_TRACE(std::string(field) + " = " +
                         std::to_string(value));
            JsonValue doc = parseJson(kMinimalRequest);
            doc.set(field, value);
            auto request = parseSweepRequest(doc);
            ASSERT_FALSE(request.ok());
            EXPECT_EQ(request.status().code(), ErrorCode::InvalidArgument);
        }
    }
    JsonValue doc = parseJson(kMinimalRequest);
    JsonValue config = JsonValue::object();
    config.set("window", 32.5);
    JsonValue configs = JsonValue::array();
    configs.push(std::move(config));
    doc.set("configs", std::move(configs));
    auto request = parseSweepRequest(doc);
    ASSERT_FALSE(request.ok());
    EXPECT_EQ(request.status().code(), ErrorCode::InvalidArgument);
}

TEST(SweepRequestTest, BudgetCapIsOutOfRange)
{
    auto request = parseSweepRequest(parseJson(kMinimalRequest),
                                     /*max_insts=*/500);
    ASSERT_FALSE(request.ok());
    EXPECT_EQ(request.status().code(), ErrorCode::OutOfRange);
}

TEST(SweepRequestTest, UnknownConfigMemberIsRejected)
{
    JsonValue doc = parseJson(kMinimalRequest);
    JsonValue config = JsonValue::object();
    config.set("widnow", 128); // typo must not pass silently
    JsonValue configs = JsonValue::array();
    configs.push(std::move(config));
    doc.set("configs", std::move(configs));
    auto request = parseSweepRequest(doc);
    ASSERT_FALSE(request.ok());
    EXPECT_EQ(request.status().code(), ErrorCode::InvalidArgument);
}

TEST(SweepRequestTest, InconsistentMachineFailsValidation)
{
    JsonValue doc = parseJson(kMinimalRequest);
    JsonValue config = JsonValue::object();
    config.set("window", 0);
    JsonValue configs = JsonValue::array();
    configs.push(std::move(config));
    doc.set("configs", std::move(configs));
    EXPECT_FALSE(parseSweepRequest(doc).ok());
}

TEST(ConfigWireTest, RoundTripPreservesEveryKnob)
{
    core::MlpConfig config = core::MlpConfig::runahead();
    config.valuePrediction = true;
    config.fetchBufferSize = 48;
    const JsonValue doc = configToJson(config);
    auto back = configFromJson(doc);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(configToJson(*back).dump(0), doc.dump(0));
}

TEST(CellKeyTest, PresentationFieldsDoNotAffectTheKey)
{
    auto a = parseSweepRequest(parseJson(kMinimalRequest));
    ASSERT_TRUE(a.ok());

    JsonValue doc = parseJson(kMinimalRequest);
    doc.set("id", "a-completely-different-id");
    doc.set("deadline_ms", 1234.5);
    doc.set("retries", 3);
    auto b = parseSweepRequest(doc);
    ASSERT_TRUE(b.ok()) << b.status().toString();
    b->configs[0].name = "my-pet-config";

    EXPECT_EQ(cellKey(*a, a->configs[0].config),
              cellKey(*b, b->configs[0].config));
    EXPECT_EQ(requestHash(*a), requestHash(*b));
}

TEST(CellKeyTest, SimulationKnobsAllReachTheKey)
{
    auto base = parseSweepRequest(parseJson(kMinimalRequest));
    ASSERT_TRUE(base.ok());
    const std::string key = cellKey(*base, base->configs[0].config);

    SweepRequest variant = *base;
    variant.seed += 1;
    EXPECT_NE(cellKey(variant, variant.configs[0].config), key);

    variant = *base;
    variant.warmup += 1;
    EXPECT_NE(cellKey(variant, variant.configs[0].config), key);

    variant = *base;
    variant.insts += 1;
    EXPECT_NE(cellKey(variant, variant.configs[0].config), key);

    core::MlpConfig config = base->configs[0].config;
    config.issueWindowSize *= 2;
    EXPECT_NE(cellKey(*base, config), key);
}

TEST(CellKeyTest, TraceSpecKeyMatchesTheRequestKey)
{
    // The tools key their resume journals by the trace they built; a
    // cell keyed that way is the daemon's cell of the same request.
    auto request = parseSweepRequest(parseJson(kMinimalRequest));
    ASSERT_TRUE(request.ok());
    const core::MlpConfig &config = request->configs[0].config;

    core::TraceSpec spec;
    spec.workload = request->workload;
    spec.seed = request->seed;
    spec.totalInsts = request->warmup + request->insts;
    spec.annotation.warmupInsts = request->warmup;
    EXPECT_EQ(cellKey(spec, config), cellKey(*request, config));

    // The budget is part of the key: the same total split differently
    // is another cell.
    spec.annotation.warmupInsts += 1;
    EXPECT_NE(cellKey(spec, config), cellKey(*request, config));
}

TEST(CellKeyTest, TraceSpecKeyNamesTheAnnotation)
{
    // An annotation variant of a trace (another L2, a perfect
    // predictor) has other planes, so its cells are other cells.
    core::TraceSpec base;
    base.workload = "database";
    base.seed = 7;
    base.totalInsts = 3000;
    base.annotation.warmupInsts = 1000;
    const core::MlpConfig config;
    const std::string key = cellKey(base, config);
    // The default annotation stays out of the key, as in a request's.
    EXPECT_EQ(key.find("annotation"), std::string::npos);

    std::vector<core::TraceSpec> variants(4, base);
    variants[0].annotation.hierarchy.l2.sizeBytes /= 2;
    variants[1].annotation.branch.perfect = true;
    variants[2].annotation.value.perfect = true;
    variants[3].annotation.buildValues = false;
    std::vector<std::string> keys{key};
    for (const core::TraceSpec &variant : variants) {
        keys.push_back(cellKey(variant, config));
        EXPECT_NE(keys.back().find("\"annotation\":{\"hierarchy\":"),
                  std::string::npos)
            << keys.back();
    }
    for (size_t i = 0; i < keys.size(); ++i)
        for (size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
}

TEST(ContentHashTest, StableAndSixteenHexChars)
{
    const std::string hash = contentHash("hello");
    EXPECT_EQ(hash.size(), 16u);
    EXPECT_EQ(hash, contentHash("hello"));
    EXPECT_NE(hash, contentHash("hello!"));
    for (char c : hash)
        EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
            << hash;
}

TEST(ResponseTest, OkResponseValidatesAndIsDeterministic)
{
    auto request = parseSweepRequest(parseJson(kMinimalRequest));
    ASSERT_TRUE(request.ok());

    core::MlpResult result;
    result.epochs = 10;
    result.usefulAccesses = 25;
    result.dmissAccesses = 20;
    result.imissAccesses = 5;
    result.measuredInsts = 1000;
    result.inhibitors.record(core::Inhibitor::Maxwin);
    result.accessesPerEpoch.add(2, 5);
    result.accessesPerEpoch.add(3, 5);

    const JsonValue response = makeOkResponse(
        *request, {{request->configs[0].name, result}});
    const Status valid = validateSweepResponse(response);
    EXPECT_TRUE(valid.ok()) << valid.toString();
    EXPECT_EQ(response.find("status")->string(), "ok");
    EXPECT_EQ(response.find("id")->string(), "req-1");
    EXPECT_EQ(response.find("request_hash")->string(),
              requestHash(*request));

    const JsonValue &row = *response.find("results")->items().begin();
    EXPECT_EQ(row.find("epochs")->uinteger(), 10u);
    EXPECT_DOUBLE_EQ(row.find("mlp")->number(), 2.5);
    ASSERT_NE(row.find("inhibitors"), nullptr);
    EXPECT_TRUE(row.find("inhibitors")->isObject());
    ASSERT_NE(row.find("accesses_per_epoch"), nullptr);

    // The cache-hit guarantee in miniature: two independent
    // serialisations of the same content are byte-identical.
    const JsonValue again = makeOkResponse(
        *request, {{request->configs[0].name, result}});
    EXPECT_EQ(response.dump(0), again.dump(0));
}

TEST(ResponseTest, ErrorResponseCarriesTheFailureTaxonomy)
{
    const Status failure =
        Status::notFound("workload 'nonesuch' is not known");
    const JsonValue response =
        makeErrorResponse("req-9", "0123456789abcdef", failure);
    const Status valid = validateSweepResponse(response);
    EXPECT_TRUE(valid.ok()) << valid.toString();
    EXPECT_EQ(response.find("status")->string(), "error");
    const JsonValue *error = response.find("error");
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->find("code")->string(),
              errorCodeName(ErrorCode::NotFound));
    EXPECT_EQ(error->find("class")->string(),
              failureClassName(failureClass(ErrorCode::NotFound)));
    EXPECT_NE(error->find("message")->string().find("nonesuch"),
              std::string::npos);
}

TEST(ResponseTest, ValidateRejectsMangledDocuments)
{
    auto request = parseSweepRequest(parseJson(kMinimalRequest));
    ASSERT_TRUE(request.ok());
    JsonValue response = makeOkResponse(
        *request, {{request->configs[0].name, core::MlpResult{}}});
    ASSERT_TRUE(validateSweepResponse(response).ok());

    JsonValue wrong_schema = response;
    wrong_schema.set("schema", "mlpsim-sweep-request-v1");
    EXPECT_FALSE(validateSweepResponse(wrong_schema).ok());

    JsonValue bad_status = response;
    bad_status.set("status", "maybe");
    EXPECT_FALSE(validateSweepResponse(bad_status).ok());

    EXPECT_FALSE(validateSweepResponse(JsonValue::object()).ok());
}

TEST(EventTest, PlannedEventCountsAddUp)
{
    const JsonValue event = makePlannedEvent("req-1", 4, 3, 1);
    EXPECT_EQ(event.find("schema")->string(), sweepEventSchema);
    EXPECT_EQ(event.find("event")->string(), "planned");
    EXPECT_EQ(event.find("cells")->uinteger(), 4u);
    EXPECT_EQ(event.find("hits")->uinteger(), 3u);
    EXPECT_EQ(event.find("computed")->uinteger(), 1u);
}

} // namespace
} // namespace mlpsim::service
