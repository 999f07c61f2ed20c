/**
 * @file
 * JSON document model, writer and strict reader (metrics/json.hh):
 * round trips, insertion-order preservation, number-kind fidelity,
 * deterministic formatting, and reader strictness.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "metrics/json.hh"
#include "support/temp_path.hh"

namespace mlpsim::metrics {
namespace {

TEST(Json, ScalarKindsAndAccessors)
{
    EXPECT_TRUE(JsonValue().isNull());
    EXPECT_TRUE(JsonValue(nullptr).isNull());
    EXPECT_EQ(JsonValue(true).boolean(), true);
    EXPECT_EQ(JsonValue(int64_t(-7)).number(), -7.0);
    EXPECT_EQ(JsonValue(uint64_t(7)).uinteger(), 7u);
    EXPECT_EQ(JsonValue(2.5).number(), 2.5);
    EXPECT_EQ(JsonValue("hi").string(), "hi");
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    JsonValue obj = JsonValue::object();
    obj.set("zebra", 1);
    obj.set("alpha", 2);
    obj.set("mid", 3);
    ASSERT_EQ(obj.size(), 3u);
    EXPECT_EQ(obj.members()[0].first, "zebra");
    EXPECT_EQ(obj.members()[1].first, "alpha");
    EXPECT_EQ(obj.members()[2].first, "mid");

    // Overwriting keeps the key's original position.
    obj.set("zebra", 9);
    EXPECT_EQ(obj.members()[0].first, "zebra");
    EXPECT_EQ(obj.members()[0].second.number(), 9.0);
    EXPECT_EQ(obj.size(), 3u);

    EXPECT_EQ(obj.dump(0), "{\"zebra\":9,\"alpha\":2,\"mid\":3}");
}

TEST(Json, NumberFormattingIsDeterministic)
{
    // Integers keep integer formatting; integral doubles get ".0" so
    // the kind survives a round trip.
    EXPECT_EQ(JsonValue(uint64_t(18446744073709551615ull)).dump(0),
              "18446744073709551615");
    EXPECT_EQ(JsonValue(int64_t(-42)).dump(0), "-42");
    EXPECT_EQ(JsonValue(1.0).dump(0), "1.0");
    EXPECT_EQ(JsonValue(0.1).dump(0), "0.1");
    EXPECT_EQ(JsonValue(1e300).dump(0), "1e+300");
}

TEST(Json, EqualityAcrossIntegerKinds)
{
    EXPECT_EQ(JsonValue(int64_t(7)), JsonValue(uint64_t(7)));
    EXPECT_NE(JsonValue(int64_t(7)), JsonValue(uint64_t(8)));
    // Doubles only compare equal to doubles (a 1 vs 1.0 difference is
    // a real formatting difference and must not be masked).
    EXPECT_NE(JsonValue(int64_t(1)), JsonValue(1.0));
    EXPECT_EQ(JsonValue(1.0), JsonValue(1.0));
}

TEST(Json, DumpParseRoundTrip)
{
    JsonValue doc = JsonValue::object();
    doc.set("string", "with \"quotes\", \\ and \x01 control");
    doc.set("int", int64_t(-123));
    doc.set("uint", uint64_t(456));
    doc.set("double", 2.718281828459045);
    doc.set("bool", true);
    doc.set("null", nullptr);
    JsonValue arr = JsonValue::array();
    arr.push(1);
    arr.push("two");
    JsonValue nested = JsonValue::object();
    nested.set("k", "v");
    arr.push(std::move(nested));
    doc.set("arr", std::move(arr));

    for (int indent : {0, 2, 4}) {
        const auto parsed = JsonValue::parse(doc.dump(indent));
        ASSERT_TRUE(parsed.ok()) << parsed.status().message();
        EXPECT_EQ(*parsed, doc) << "indent " << indent;
    }
}

TEST(Json, ParseAcceptsUnicodeEscapes)
{
    const auto parsed =
        JsonValue::parse("\"a\\u00e9b\\ud83d\\ude00c\\n\"");
    ASSERT_TRUE(parsed.ok());
    // é is 2 UTF-8 bytes, the emoji (surrogate pair) is 4.
    EXPECT_EQ(parsed->string(), "a\xc3\xa9"
                                "b\xf0\x9f\x98\x80"
                                "c\n");
}

TEST(Json, ParseKeepsNumberKinds)
{
    auto doc = JsonValue::parse("[18446744073709551615, -1, 1.5, 1e3]");
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc->items()[0].kind(), JsonValue::Kind::Uint);
    EXPECT_EQ(doc->items()[1].kind(), JsonValue::Kind::Int);
    EXPECT_EQ(doc->items()[2].kind(), JsonValue::Kind::Double);
    EXPECT_EQ(doc->items()[3].kind(), JsonValue::Kind::Double);
    EXPECT_EQ(doc->items()[3].number(), 1000.0);
}

TEST(Json, ParseRejectsMalformedDocuments)
{
    const char *bad[] = {
        "",
        "{",
        "{\"a\": 1,}",       // trailing comma
        "{a: 1}",            // unquoted key
        "[1, 2] garbage",    // trailing garbage
        "NaN",
        "Infinity",
        "\"unterminated",
        "\"bad \\q escape\"",
        "01",                // leading zero
        "+1",
        "[1 2]",
        "{\"a\" 1}",
        "\"\\ud83d\"",       // lone surrogate
    };
    for (const char *text : bad) {
        EXPECT_FALSE(JsonValue::parse(text).ok())
            << "accepted: " << text;
    }
}

TEST(Json, ParseRejectsRunawayNesting)
{
    const std::string deep(100, '[');
    EXPECT_FALSE(JsonValue::parse(deep).ok());
    std::string nested;
    for (int i = 0; i < 80; ++i)
        nested += "[";
    for (int i = 0; i < 80; ++i)
        nested += "]";
    EXPECT_FALSE(JsonValue::parse(nested).ok());
}

TEST(Json, FindAndMissingMembers)
{
    JsonValue obj = JsonValue::object();
    obj.set("present", 1);
    ASSERT_NE(obj.find("present"), nullptr);
    EXPECT_EQ(obj.find("absent"), nullptr);
    EXPECT_EQ(JsonValue(5).find("anything"), nullptr);
}

TEST(Json, FileRoundTripIsAtomicAndExact)
{
    // The plain and ASan/UBSan twins may run at the same time.
    const std::string path = test::tempPath("mlpsim_json_test", ".json");
    JsonValue doc = JsonValue::object();
    doc.set("answer", uint64_t(42));
    doc.set("pi", 3.141592653589793);
    ASSERT_TRUE(writeJsonFile(path, doc).ok());
    const auto read = readJsonFile(path);
    ASSERT_TRUE(read.ok()) << read.status().message();
    EXPECT_EQ(*read, doc);
    std::remove(path.c_str());

    EXPECT_FALSE(readJsonFile(path).ok()); // gone again
}

} // namespace
} // namespace mlpsim::metrics
