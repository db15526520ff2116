#include "obs/json.h"

#include <gtest/gtest.h>

#include <limits>

namespace dlte::obs {
namespace {

TEST(JsonWriter, ObjectWithMixedValues) {
  JsonWriter w;
  w.begin_object();
  w.key("s").value("hi");
  w.key("i").value(std::int64_t{-3});
  w.key("u").value(std::uint64_t{7});
  w.end_object();
  EXPECT_EQ(w.str(), R"({"s":"hi","i":-3,"u":7})");
}

TEST(JsonWriter, NestedContainersCommaPlacement) {
  JsonWriter w;
  w.begin_object();
  w.key("a").begin_array();
  w.value(1).value(2);
  w.begin_object();
  w.key("x").value(3);
  w.end_object();
  w.end_array();
  w.key("b").value(4);
  w.end_object();
  EXPECT_EQ(w.str(), R"({"a":[1,2,{"x":3}],"b":4})");
}

TEST(JsonWriter, EmptyContainers) {
  JsonWriter w;
  w.begin_object();
  w.key("o").begin_object().end_object();
  w.key("a").begin_array().end_array();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"o":{},"a":[]})");
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonWriter::escape("plain"), "plain");
  EXPECT_EQ(JsonWriter::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonWriter::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonWriter::escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonWriter::escape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonWriter::escape("cr\rlf"), "cr\\rlf");
  EXPECT_EQ(JsonWriter::escape(std::string{"\x01", 1}), "\\u0001");
  EXPECT_EQ(JsonWriter::escape(std::string{"\x1f", 1}), "\\u001f");
}

TEST(JsonWriter, EscapedStringValueRoundsThroughWriter) {
  JsonWriter w;
  w.begin_object();
  w.key("msg\"key").value("a\nb");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"msg\\\"key\":\"a\\nb\"}");
}

TEST(JsonWriter, FormatDoubleIntegralValuesPrintAsIntegers) {
  EXPECT_EQ(JsonWriter::format_double(0.0), "0");
  EXPECT_EQ(JsonWriter::format_double(1.0), "1");
  EXPECT_EQ(JsonWriter::format_double(-42.0), "-42");
  EXPECT_EQ(JsonWriter::format_double(1e6), "1000000");
}

TEST(JsonWriter, FormatDoubleShortestRoundTrip) {
  EXPECT_EQ(JsonWriter::format_double(0.5), "0.5");
  EXPECT_EQ(JsonWriter::format_double(-2.25), "-2.25");
  // Shortest form that round-trips, not a fixed precision.
  EXPECT_EQ(JsonWriter::format_double(0.1), "0.1");
}

TEST(JsonWriter, NonFiniteDoublesSerializeAsNull) {
  EXPECT_EQ(JsonWriter::format_double(
                std::numeric_limits<double>::quiet_NaN()),
            "null");
  EXPECT_EQ(JsonWriter::format_double(
                std::numeric_limits<double>::infinity()),
            "null");
  JsonWriter w;
  w.begin_object();
  w.key("v").value(std::numeric_limits<double>::infinity());
  w.end_object();
  EXPECT_EQ(w.str(), R"({"v":null})");
}

}  // namespace
}  // namespace dlte::obs
