// Tests for util::json: the strict parser (line-numbered errors) and the
// Cursor schema walker (key-path errors).
#include <gtest/gtest.h>

#include <string>

#include "util/json.hpp"

namespace {

using namespace dsa::util::json;

// --------------------------------------------------------------- parse ----

TEST(JsonParse, ScalarsAndContainers) {
  const Value v = parse(R"({"a": 1, "b": [true, null, -2.5], "c": "x"})");
  ASSERT_EQ(v.type, Value::Type::kObject);
  ASSERT_NE(v.find("a"), nullptr);
  EXPECT_EQ(v.find("a")->number, 1.0);
  const Value* b = v.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->items.size(), 3u);
  EXPECT_EQ(b->items[0].type, Value::Type::kBool);
  EXPECT_TRUE(b->items[0].boolean);
  EXPECT_EQ(b->items[1].type, Value::Type::kNull);
  EXPECT_EQ(b->items[2].number, -2.5);
  EXPECT_EQ(v.find("c")->text, "x");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, StringEscapes) {
  const Value v = parse(R"(["a\"b", "tab\there", "\u0041\u00e9"])");
  EXPECT_EQ(v.items[0].text, "a\"b");
  EXPECT_EQ(v.items[1].text, "tab\there");
  EXPECT_EQ(v.items[2].text, "A\xc3\xa9");
}

TEST(JsonParse, ErrorsNameOriginAndLine) {
  try {
    parse("{\n  \"a\": 1,\n  \"a\": 2\n}", "spec.json");
    FAIL() << "expected ParseError";
  } catch (const ParseError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("spec.json:3"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate object key \"a\""), std::string::npos)
        << what;
  }
}

TEST(JsonParse, RejectsMalformedDocuments) {
  EXPECT_THROW(parse(""), ParseError);
  EXPECT_THROW(parse("{"), ParseError);
  EXPECT_THROW(parse("[1,]"), ParseError);
  EXPECT_THROW(parse("{\"a\" 1}"), ParseError);
  EXPECT_THROW(parse("01"), ParseError);
  EXPECT_THROW(parse("1 2"), ParseError);       // trailing content
  EXPECT_THROW(parse("\"\\ud800\""), ParseError);  // lone surrogate
  EXPECT_THROW(parse("nul"), ParseError);
}

TEST(JsonParse, RejectsRunawayNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  EXPECT_THROW(parse(deep), ParseError);
}

TEST(JsonEscape, QuotesControlCharacters) {
  EXPECT_EQ(escape("plain"), "plain");
  EXPECT_EQ(escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(escape(std::string("\n\t\x01", 3)), "\\n\\t\\u0001");
}

/// `text` as a JSON string literal.
std::string literal(const std::string& text) {
  std::string out = "\"";
  out += escape(text);
  out += '"';
  return out;
}

TEST(JsonEscape, EveryByteRoundTripsThroughParse) {
  std::string all;
  for (int byte = 0; byte < 256; ++byte) all += static_cast<char>(byte);
  // Each byte alone, then all of them in one string, so runs of plain
  // characters meet every escaped one on both sides.
  for (int byte = 0; byte < 256; ++byte) {
    const std::string one(1, static_cast<char>(byte));
    EXPECT_EQ(parse(literal(one)).text, one) << byte;
  }
  const std::string twice = all + all;
  EXPECT_EQ(parse(literal(twice)).text, twice);
  // Only the characters RFC 8259 requires are escaped.
  EXPECT_EQ(escape("\x7f\x80\xff/"), "\x7f\x80\xff/");
  EXPECT_EQ(escape(std::string("\x00\x1f", 2)), "\\u0000\\u001f");
}

TEST(JsonParse, StringErrorsKeepTheirLineNumbers) {
  const auto message = [](const std::string& text) -> std::string {
    try {
      parse(text, "f.json");
    } catch (const ParseError& error) {
      return error.what();
    }
    return "no error";
  };
  // A raw newline inside a string has already moved the line counter.
  EXPECT_EQ(message("{\n  \"a\": \"x\ny\"}"),
            "f.json:3: unescaped newline in string");
  EXPECT_EQ(message("[\n\"abc"), "f.json:2: unexpected end of input");
  EXPECT_EQ(message("[\n\n\"a\\q\"]"), "f.json:3: invalid escape '\\q'");
  EXPECT_EQ(message("[\"long plain run\",\n\"\\u12G4\"]"),
            "f.json:2: invalid \\u escape");
  EXPECT_EQ(message("[\"a\",\n\"b\"\n,]"), "f.json:3: unexpected character ']'");
}

// -------------------------------------------------------------- Cursor ----

TEST(JsonCursor, TypedReadsAndPaths) {
  const Value root = parse(
      R"({"name": "x", "n": 3, "f": 0.5, "on": true,
          "list": [10, 20]})",
      "t.json");
  const Cursor cursor(root, "t.json");
  EXPECT_EQ(cursor.key("name").as_string(), "x");
  EXPECT_EQ(cursor.key("n").as_int(), 3);
  EXPECT_EQ(cursor.key("f").as_double(), 0.5);
  EXPECT_TRUE(cursor.key("on").as_bool());
  const Cursor list = cursor.key("list");
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list.at(1).as_int(), 20);
  EXPECT_EQ(list.at(1).path(), "$.list[1]");
}

TEST(JsonCursor, MissingKeyNamesPath) {
  const Value root = parse(R"({"params": {"inner": {}}})", "t.json");
  const Cursor cursor(root, "t.json");
  try {
    (void)cursor.key("params").key("inner").key("rounds");
    FAIL() << "expected SchemaError";
  } catch (const SchemaError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("$.params.inner"), std::string::npos) << what;
    EXPECT_NE(what.find("missing required key \"rounds\""), std::string::npos)
        << what;
    EXPECT_NE(what.find("t.json:"), std::string::npos) << what;
  }
}

TEST(JsonCursor, TypeMismatchNamesBothTypes) {
  const Value root = parse(R"({"n": "not a number"})");
  const Cursor cursor(root, "t.json");
  try {
    (void)cursor.key("n").as_int();
    FAIL() << "expected SchemaError";
  } catch (const SchemaError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("$.n"), std::string::npos) << what;
    EXPECT_NE(what.find("expected"), std::string::npos) << what;
    EXPECT_NE(what.find("string"), std::string::npos) << what;
  }
}

TEST(JsonCursor, AsIntRejectsNonIntegral) {
  const Value root = parse(R"({"a": 1.5, "b": 1e300})");
  const Cursor cursor(root, "t.json");
  EXPECT_THROW((void)cursor.key("a").as_int(), SchemaError);
  EXPECT_THROW((void)cursor.key("b").as_int(), SchemaError);
}

TEST(JsonCursor, AllowOnlyRejectsUnknownKeys) {
  const Value root = parse(R"({"good": 1, "typo": 2})");
  const Cursor cursor(root, "t.json");
  try {
    cursor.allow_only({"good", "other"});
    FAIL() << "expected SchemaError";
  } catch (const SchemaError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("unknown key \"typo\""), std::string::npos) << what;
    EXPECT_NE(what.find("good"), std::string::npos) << what;
  }
}

TEST(JsonCursor, TryKeyIsOptional) {
  const Value root = parse(R"({"present": 7})");
  const Cursor cursor(root, "t.json");
  ASSERT_TRUE(cursor.try_key("present").has_value());
  EXPECT_EQ(cursor.try_key("present")->as_int(), 7);
  EXPECT_FALSE(cursor.try_key("absent").has_value());
}

}  // namespace
