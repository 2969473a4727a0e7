#include "util/string_util.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace gmark {
namespace {

TEST(StringUtilTest, JoinBasics) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringUtilTest, SplitBasics) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",x,", ','), (std::vector<std::string>{"", "x", ""}));
}

TEST(StringUtilTest, SplitJoinRoundTrip) {
  std::vector<std::string> parts{"x", "yy", "", "z"};
  EXPECT_EQ(Split(Join(parts, "|"), '|'), parts);
}

TEST(StringUtilTest, TrimBasics) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("\t\nhi"), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_TRUE(StartsWith("hello", ""));
  EXPECT_FALSE(StartsWith("he", "hello"));
  EXPECT_FALSE(StartsWith("hello", "el"));
}

TEST(StringUtilTest, ParseIntValid) {
  EXPECT_EQ(ParseInt("42").ValueOrDie(), 42);
  EXPECT_EQ(ParseInt("-7").ValueOrDie(), -7);
  EXPECT_EQ(ParseInt("  13 ").ValueOrDie(), 13);
  EXPECT_EQ(ParseInt("0").ValueOrDie(), 0);
}

TEST(StringUtilTest, ParseIntInvalid) {
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt("abc").ok());
  EXPECT_FALSE(ParseInt("12x").ok());
  EXPECT_FALSE(ParseInt("1.5").ok());
  EXPECT_FALSE(ParseInt("99999999999999999999999").ok());
}

TEST(StringUtilTest, ParseDoubleValid) {
  EXPECT_DOUBLE_EQ(ParseDouble("2.5").ValueOrDie(), 2.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-0.125").ValueOrDie(), -0.125);
  EXPECT_DOUBLE_EQ(ParseDouble("1e3").ValueOrDie(), 1000.0);
}

TEST(StringUtilTest, ParseDoubleInvalid) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("x").ok());
  EXPECT_FALSE(ParseDouble("1.5y").ok());
}

TEST(StringUtilTest, StrCatFormatsEveryPieceKind) {
  const std::string name = "authors";
  EXPECT_EQ(StrCat("<n", uint64_t{18446744073709551615u}, "> ", name, ' ',
                   std::string_view("x"), int64_t{-9223372036854775807 - 1},
                   0, static_cast<uint32_t>(7)),
            "<n18446744073709551615> authors x"
            "-9223372036854775808" "0" "7");
  std::string out = "a";
  StrAppend(&out, 'b', -1, "");
  EXPECT_EQ(out, "ab-1");
}

TEST(StringUtilTest, FormatDoubleMatchesPrintfG) {
  // FormatDouble is %g at the given precision, including precisions
  // whose digits run past a double's 17 significant ones.
  for (double v : {0.1, 1e-300, -123456789.125, 5e-324, 1e300, 0.0}) {
    for (int precision : {0, 1, 6, 17, 40}) {
      char expected[512];
      std::snprintf(expected, sizeof(expected), "%.*g", precision, v);
      EXPECT_EQ(FormatDouble(v, precision), expected) << precision;
    }
  }
}

TEST(StringUtilTest, FormatFixedMatchesPrintfF) {
  // FormatFixed is %.Nf, up to the widest double at many decimals.
  for (double v : {0.1, 0.0125, -0.0, 2.5e9, -123456789.125, 5e-324,
                   -1.7976931348623157e308, HUGE_VAL}) {
    for (int digits : {0, 1, 3, 6, 40}) {
      char expected[512];
      std::snprintf(expected, sizeof(expected), "%.*f", digits, v);
      EXPECT_EQ(FormatFixed(v, digits), expected) << digits;
    }
  }
}

TEST(StringUtilTest, FormatDoubleTrimsZeros) {
  EXPECT_EQ(FormatDouble(1.5), "1.5");
  EXPECT_EQ(FormatDouble(2.0), "2");
  EXPECT_EQ(FormatDouble(0.001), "0.001");
}

}  // namespace
}  // namespace gmark
