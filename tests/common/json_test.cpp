#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "common/check.hpp"

namespace g10 {
namespace {

std::string write_sample() {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("name").value("run \"7\"\n");
  w.key("count").value(std::int64_t{-3});
  w.key("big").value(std::uint64_t{18446744073709551615ull});
  w.key("ok").value(true);
  w.key("ratio").value(0.1);
  w.key("nothing").null();
  w.key("list").begin_array();
  w.value(1.5);
  w.value("x");
  w.begin_object();
  w.key("nested").value(false);
  w.end_object();
  w.end_array();
  w.end_object();
  return std::move(os).str();
}

TEST(JsonWriterTest, EmitsSeparatorsAndEscapes) {
  const std::string text = write_sample();
  EXPECT_NE(text.find("\"name\":\"run \\\"7\\\"\\n\""), std::string::npos);
  EXPECT_NE(text.find("\"count\":-3"), std::string::npos);
  EXPECT_NE(text.find("\"big\":18446744073709551615"), std::string::npos);
  EXPECT_NE(text.find("\"nothing\":null"), std::string::npos);
  EXPECT_NE(text.find("\"list\":[1.5,\"x\",{\"nested\":false}]"),
            std::string::npos);
}

TEST(JsonWriterTest, EscapesControlCharacters) {
  std::string in = "a\tb";
  in.push_back('\x01');  // appended separately: "\x01c" would parse as \x1c
  in += "c";
  std::string out;
  json_escape(out, in);
  EXPECT_EQ(out, "\"a\\tb\\u0001c\"");
}

TEST(JsonDoubleTest, ShortestRoundTrip) {
  EXPECT_EQ(json_double(0.1), "0.1");
  EXPECT_EQ(json_double(1.0), "1");
  EXPECT_EQ(json_double(-2.5), "-2.5");
  // Non-finite values have no JSON representation.
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_double(std::nan("")), "null");
}

TEST(JsonValueTest, ParsesWriterOutput) {
  const auto v = JsonValue::parse(write_sample());
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_object());
  EXPECT_EQ(v->get_string("name"), "run \"7\"\n");
  EXPECT_EQ(v->get_int("count"), -3);
  EXPECT_EQ(v->get_uint("big"), 18446744073709551615ull);
  EXPECT_TRUE(v->get_bool("ok"));
  EXPECT_DOUBLE_EQ(v->get_double("ratio"), 0.1);
  const JsonValue* nothing = v->find("nothing");
  ASSERT_NE(nothing, nullptr);
  EXPECT_TRUE(nothing->is_null());
  const JsonValue* list = v->find("list");
  ASSERT_NE(list, nullptr);
  ASSERT_TRUE(list->is_array());
  ASSERT_EQ(list->items().size(), 3u);
  EXPECT_DOUBLE_EQ(list->items()[0].as_double(), 1.5);
  EXPECT_EQ(list->items()[1].as_string(), "x");
  EXPECT_FALSE(list->items()[2].get_bool("nested", true));
}

TEST(JsonValueTest, DoubleSurvivesWriteParseBitExactly) {
  // The byte-identical --resume guarantee rests on this property.
  double probes[] = {0.1, 1.0 / 3.0, 1e-300, 123456.789, 5e17, 0.0};
  for (const double x : probes) {
    const auto v = JsonValue::parse(json_double(x));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->as_double(), x);
    EXPECT_EQ(json_double(v->as_double()), json_double(x));
  }
}

TEST(JsonValueTest, RejectsDamage) {
  std::string error;
  // The shapes a torn journal tail takes: truncated mid-token.
  EXPECT_FALSE(JsonValue::parse("{\"a\":1", &error).has_value());
  EXPECT_FALSE(JsonValue::parse("{\"a\":", &error).has_value());
  EXPECT_FALSE(JsonValue::parse("{\"a", &error).has_value());
  EXPECT_FALSE(JsonValue::parse("[1,2", &error).has_value());
  EXPECT_FALSE(JsonValue::parse("\"unterminated", &error).has_value());
  EXPECT_FALSE(JsonValue::parse("tru", &error).has_value());
  EXPECT_FALSE(JsonValue::parse("", &error).has_value());
  // Trailing garbage after a complete document.
  EXPECT_FALSE(JsonValue::parse("{} {}", &error).has_value());
  EXPECT_FALSE(JsonValue::parse("1 2", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(JsonValueTest, DepthLimitStopsRecursion) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  EXPECT_FALSE(JsonValue::parse(deep).has_value());
}

TEST(JsonValueTest, UnicodeEscapes) {
  const auto v = JsonValue::parse("\"\\u0041\\u00e9\\u4e2d\"");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "A\xC3\xA9\xE4\xB8\xAD");
}

TEST(JsonValueTest, OutOfRangeIntegersSaturate) {
  // Minimized from the journal mutation test: "attempts":9223372036854775808
  // converted an out-of-range double to an integer (undefined behavior).
  const auto v = JsonValue::parse(
      "{\"big\":9223372036854775808,\"huge\":1e300,\"tiny\":-1e300,"
      "\"neg\":-5,\"frac\":-0.5,\"min\":-9223372036854775808}");
  ASSERT_TRUE(v.has_value());
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(v->get_int("big"), kMax);
  EXPECT_EQ(v->get_int("huge"), kMax);
  EXPECT_EQ(v->get_int("tiny"), kMin);
  EXPECT_EQ(v->get_int("min"), kMin);
  EXPECT_EQ(v->get_uint("big"), std::uint64_t{1} << 63);
  EXPECT_EQ(v->get_uint("huge"), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(v->get_uint("tiny"), 0u);
  EXPECT_EQ(v->get_uint("neg"), 0u);
  EXPECT_EQ(v->get_uint("frac"), 0u);
}

TEST(JsonValueTest, TypedAccessorsCheckKind) {
  const auto v = JsonValue::parse("{\"s\":\"x\"}");
  ASSERT_TRUE(v.has_value());
  EXPECT_THROW(v->as_double(), CheckError);
  EXPECT_THROW(v->find("s")->as_bool(), CheckError);
  // Typed lookups fall back on kind mismatch instead of throwing.
  EXPECT_DOUBLE_EQ(v->get_double("s", 7.0), 7.0);
  EXPECT_EQ(v->get_string("missing", "d"), "d");
}

}  // namespace
}  // namespace g10
