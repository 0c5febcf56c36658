// Tests for the JSON writer and the flattening reader.
#include "stats/json.h"

#include <gtest/gtest.h>

#include <vector>

namespace rd::stats {
namespace {

TEST(Json, EmptyObject) {
  JsonWriter jw;
  EXPECT_EQ(jw.str(), "{\n}\n");
}

TEST(Json, TypesAndOrder) {
  JsonWriter jw;
  jw.add("name", std::string("mcf"))
      .add("count", std::uint64_t{42})
      .add("ratio", 1.5);
  const std::string s = jw.str();
  EXPECT_NE(s.find("\"name\": \"mcf\","), std::string::npos);
  EXPECT_NE(s.find("\"count\": 42,"), std::string::npos);
  EXPECT_NE(s.find("\"ratio\": 1.5\n"), std::string::npos);
  // name comes before count comes before ratio
  EXPECT_LT(s.find("name"), s.find("count"));
  EXPECT_LT(s.find("count"), s.find("ratio"));
}

TEST(Json, NoTrailingCommaOnLast) {
  JsonWriter jw;
  jw.add("a", std::uint64_t{1}).add("b", std::uint64_t{2});
  const std::string s = jw.str();
  EXPECT_NE(s.find("\"a\": 1,\n"), std::string::npos);
  EXPECT_NE(s.find("\"b\": 2\n"), std::string::npos);
}

TEST(Json, EscapesSpecialCharacters) {
  JsonWriter jw;
  jw.add("path", std::string("a\"b\\c\nd\te"));
  const std::string s = jw.str();
  EXPECT_NE(s.find("a\\\"b\\\\c\\nd\\te"), std::string::npos);
}

TEST(Json, ControlCharactersEscapedAsUnicode) {
  JsonWriter jw;
  jw.add("ctrl", std::string("x\x01y"));
  EXPECT_NE(jw.str().find("\\u0001"), std::string::npos);
}

TEST(Json, NestedObjectsAndArraysIndentOneKeyPerLine) {
  JsonWriter inner;
  inner.add("n", std::uint64_t{1});
  JsonWriter run;
  run.add("x", 0.5);
  JsonWriter jw;
  jw.add("child", inner)
      .add("empty", JsonWriter{})
      .add("xs", std::vector<double>{1.5, 2.0})
      .add("ids", std::vector<std::uint64_t>{3, 4})
      .add("runs", std::vector<JsonWriter>{run, run})
      .add("none", std::vector<JsonWriter>{});
  EXPECT_EQ(jw.str(),
            "{\n"
            "  \"child\": {\n"
            "    \"n\": 1\n"
            "  },\n"
            "  \"empty\": {\n"
            "  },\n"
            "  \"xs\": [1.5, 2],\n"
            "  \"ids\": [3, 4],\n"
            "  \"runs\": [\n"
            "    {\n"
            "      \"x\": 0.5\n"
            "    },\n"
            "    {\n"
            "      \"x\": 0.5\n"
            "    }\n"
            "  ],\n"
            "  \"none\": []\n"
            "}\n");
}

TEST(Json, DoublesRoundTripExactly) {
  const std::vector<double> values = {0.1,     1.0 / 3.0, 2e6,    1e-300,
                                      -2.5e17, 155.4889803673211, 0.0};
  JsonWriter jw;
  jw.add("xs", values);
  FlatJson doc;
  std::string err;
  ASSERT_TRUE(flatten_json(jw.str(), doc, err)) << err;
  for (std::size_t i = 0; i < values.size(); ++i) {
    double back = 0.0;
    ASSERT_TRUE(json_number(doc.at("xs[" + std::to_string(i) + "]"), back));
    EXPECT_EQ(back, values[i]);
  }
}

TEST(Json, FlattenNamesEveryLeafByPath) {
  FlatJson doc;
  std::string err;
  ASSERT_TRUE(flatten_json(
      R"({"a": {"b": [1, {"c": "s\"q"}]}, "t": true, "e": {}, "z": []})",
      doc, err))
      << err;
  const FlatJson want = {{"a.b[0]", "1"},
                         {"a.b[1].c", R"("s\"q")"},
                         {"t", "true"}};
  EXPECT_EQ(doc, want);
}

TEST(Json, FlattenRejectsMalformedInputWithAMessage) {
  for (const char* bad : {"", "{\"a\": \"x", "{\"a\": 1", "{\"a\": [1, 2",
                          "{\"a\" 1}", "{\"a\": 1} x", "{\"a\": 1.2.3}",
                          "{\"a\": }", "{a: 1}", "[1 2]", "[1,]",
                          "{\"a\": 1,}"}) {
    FlatJson doc;
    std::string err;
    EXPECT_FALSE(flatten_json(bad, doc, err)) << bad;
    EXPECT_NE(err.find("offset"), std::string::npos) << bad << ": " << err;
  }
}

}  // namespace
}  // namespace rd::stats
