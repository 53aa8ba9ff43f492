// The strict JSON reader (common/json.h): scalars, nesting, escapes, and
// the rejection of malformed or hostile documents with a byte offset.

#include <string>

#include "common/json.h"
#include "gtest/gtest.h"

namespace rasa {
namespace {

TEST(ParseJsonTest, ParsesScalarsArraysAndObjects) {
  StatusOr<JsonValue> v = ParseJson(
      " {\"a\": [1, -2.5, 1e3], \"b\": {\"c\": true, \"d\": null}, "
      "\"e\": \"text\"} ");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  const JsonValue* a = v->Get("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_EQ(a->array[0].number, 1.0);
  EXPECT_EQ(a->array[1].number, -2.5);
  EXPECT_EQ(a->array[2].number, 1000.0);
  EXPECT_TRUE(v->Get("b")->Get("c")->boolean);
  EXPECT_EQ(v->Get("b")->Get("d")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v->Get("e")->string, "text");
  EXPECT_EQ(v->Get("missing"), nullptr);
}

TEST(ParseJsonTest, DecodesEscapesIncludingUnicode) {
  StatusOr<JsonValue> v =
      ParseJson("\"a\\n\\t\\\"\\\\\\u0041\\u00e9\"");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->string, "a\n\t\"\\A\xc3\xa9");  // \u00e9 -> UTF-8 é
}

TEST(ParseJsonTest, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",                    // empty
      "{",                   // unterminated object
      "[1, 2",               // unterminated array
      "{\"a\" 1}",           // missing colon
      "{\"a\": 1,}",         // trailing comma
      "[1] trailing",        // trailing non-whitespace
      "\"unterminated",      // unterminated string
      "\"bad \\x escape\"",  // unknown escape
      "01",                  // leading zero
      "1.",                  // bare decimal point
      "+1",                  // leading plus
      "nul",                 // truncated keyword
      "NaN",                 // not a JSON number
  };
  for (const char* text : bad) {
    StatusOr<JsonValue> v = ParseJson(text);
    EXPECT_FALSE(v.ok()) << "accepted: " << text;
    if (!v.ok()) {
      // Every rejection carries a byte offset for debuggability.
      EXPECT_NE(v.status().ToString().find("byte"), std::string::npos)
          << v.status().ToString();
    }
  }
}

TEST(ParseJsonTest, RejectsRunawayNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  for (int i = 0; i < 100; ++i) deep += "]";
  StatusOr<JsonValue> v = ParseJson(deep);
  EXPECT_FALSE(v.ok());  // hostile input must not smash the stack
}

TEST(ParseJsonTest, ObjectKeepsInsertionOrderAndGetReturnsFirst) {
  StatusOr<JsonValue> v = ParseJson("{\"k\": 1, \"z\": 2, \"k\": 3}");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_EQ(v->object.size(), 3u);
  EXPECT_EQ(v->object[0].first, "k");
  EXPECT_EQ(v->object[1].first, "z");
  EXPECT_EQ(v->Get("k")->number, 1.0);
}

}  // namespace
}  // namespace rasa
