#include "causaliot/util/strings.hpp"

#include <gtest/gtest.h>

namespace causaliot::util {
namespace {

TEST(Split, BasicFields) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Split, PreservesEmptyFields) {
  EXPECT_EQ(split(",a,,b,", ','),
            (std::vector<std::string>{"", "a", "", "b", ""}));
}

TEST(Split, SingleFieldWithoutDelimiter) {
  EXPECT_EQ(split("hello", ','), (std::vector<std::string>{"hello"}));
}

TEST(Split, EmptyInputYieldsOneEmptyField) {
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Trim, StripsWhitespaceBothEnds) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("\t\nx\r "), "x");
  EXPECT_EQ(trim("nochange"), "nochange");
}

TEST(Trim, AllWhitespaceBecomesEmpty) {
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Join, Basic) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({"solo"}, ","), "solo");
  EXPECT_EQ(join({}, ","), "");
}

TEST(ParseDouble, ValidValues) {
  EXPECT_DOUBLE_EQ(parse_double("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(parse_double("-0.25").value(), -0.25);
  EXPECT_DOUBLE_EQ(parse_double("  42  ").value(), 42.0);
  EXPECT_DOUBLE_EQ(parse_double("1e3").value(), 1000.0);
}

TEST(ParseDouble, RejectsGarbage) {
  EXPECT_FALSE(parse_double("abc").ok());
  EXPECT_FALSE(parse_double("1.5x").ok());
  EXPECT_FALSE(parse_double("").ok());
  EXPECT_FALSE(parse_double("  ").ok());
  for (const char* text : {"inf", "nan", "-inf", "infinity", "-nan"}) {
    EXPECT_FALSE(parse_double(text).ok()) << text;  // non-finite
  }
}

TEST(ParseInt, ValidValues) {
  EXPECT_EQ(parse_int("17").value(), 17);
  EXPECT_EQ(parse_int("-4").value(), -4);
  EXPECT_EQ(parse_int(" 8 ").value(), 8);
}

TEST(ParseInt, RejectsNonIntegers) {
  EXPECT_FALSE(parse_int("3.5").ok());
  EXPECT_FALSE(parse_int("x").ok());
  EXPECT_FALSE(parse_int("").ok());
}

TEST(StartsWith, Basic) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_TRUE(starts_with("foo", ""));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_FALSE(starts_with("xfoo", "foo"));
}

TEST(Format, PrintfSemantics) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(format("%.2f", 3.14159), "3.14");
  EXPECT_EQ(format("plain"), "plain");
}

TEST(Format, LongOutput) {
  const std::string big(500, 'a');
  EXPECT_EQ(format("%s!", big.c_str()).size(), 501u);
}

}  // namespace
}  // namespace causaliot::util
