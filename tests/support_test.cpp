#include <gtest/gtest.h>

#include "support/checked_int.hpp"
#include "support/diagnostics.hpp"
#include "support/rational.hpp"
#include "support/string_utils.hpp"

namespace ad {
namespace {

TEST(CheckedInt, AddDetectsOverflow) {
  EXPECT_EQ(checkedAdd(2, 3), 5);
  EXPECT_FALSE(tryAdd(std::numeric_limits<std::int64_t>::max(), 1).has_value());
  EXPECT_THROW((void)checkedAdd(std::numeric_limits<std::int64_t>::max(), 1), ContractViolation);
}

TEST(CheckedInt, MulDetectsOverflow) {
  EXPECT_EQ(checkedMul(-4, 5), -20);
  EXPECT_FALSE(tryMul(std::int64_t{1} << 40, std::int64_t{1} << 40).has_value());
}

TEST(CheckedInt, FloorDivMatchesMathematicalFloor) {
  EXPECT_EQ(floorDiv(7, 2), 3);
  EXPECT_EQ(floorDiv(-7, 2), -4);
  EXPECT_EQ(floorDiv(7, -2), -4);
  EXPECT_EQ(floorDiv(-7, -2), 3);
}

TEST(CheckedInt, CeilDivMatchesMathematicalCeil) {
  EXPECT_EQ(ceilDiv(7, 2), 4);
  EXPECT_EQ(ceilDiv(-7, 2), -3);
  EXPECT_EQ(ceilDiv(6, 3), 2);
  EXPECT_EQ(ceilDiv(7, -2), -3);
}

TEST(CheckedInt, EuclidModAlwaysNonNegative) {
  EXPECT_EQ(euclidMod(7, 3), 1);
  EXPECT_EQ(euclidMod(-7, 3), 2);
  EXPECT_EQ(euclidMod(-7, -3), 2);
}

TEST(CheckedInt, Gcd) {
  EXPECT_EQ(gcd64(12, 18), 6);
  EXPECT_EQ(gcd64(-12, 18), 6);
  EXPECT_EQ(gcd64(0, 5), 5);
  EXPECT_EQ(gcd64(7, 0), 7);
}

TEST(Rational, NormalizesOnConstruction) {
  Rational r(6, -4);
  EXPECT_EQ(r.num(), -3);
  EXPECT_EQ(r.den(), 2);
  EXPECT_THROW(Rational(1, 0), ContractViolation);
}

TEST(Rational, Arithmetic) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) - Rational(1, 2), Rational(0));
  EXPECT_EQ(Rational(2, 3) * Rational(3, 4), Rational(1, 2));
  EXPECT_EQ(Rational(1, 2) / Rational(1, 4), Rational(2));
}

TEST(Rational, Ordering) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(0));
  EXPECT_GE(Rational(5, 5), Rational(1));
}

TEST(Rational, FloorCeil) {
  EXPECT_EQ(Rational(7, 2).floor(), 3);
  EXPECT_EQ(Rational(7, 2).ceil(), 4);
  EXPECT_EQ(Rational(-7, 2).floor(), -4);
  EXPECT_EQ(Rational(-7, 2).ceil(), -3);
  EXPECT_EQ(Rational(4).floor(), 4);
}

TEST(Rational, AsIntegerContract) {
  EXPECT_EQ(Rational(8, 2).asInteger(), 4);
  EXPECT_THROW((void)Rational(1, 2).asInteger(), ContractViolation);
}

TEST(Rational, Printing) {
  EXPECT_EQ(Rational(3, 4).str(), "3/4");
  EXPECT_EQ(Rational(-5).str(), "-5");
}

TEST(StringUtils, Join) {
  std::vector<int> v{1, 2, 3};
  EXPECT_EQ(join(v, ", "), "1, 2, 3");
  EXPECT_EQ(join(std::vector<int>{}, ","), "");
}

TEST(StringUtils, JsonQuoteEscapesEveryControlCharacter) {
  EXPECT_EQ(jsonQuote("F1"), "\"F1\"");
  EXPECT_EQ(jsonQuote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(jsonQuote("\b\f\n\r\t"), "\"\\b\\f\\n\\r\\t\"");
  // The rest of U+0000..U+001F as \u00XX, NUL included.
  EXPECT_EQ(jsonQuote(std::string("x\x01y\x1f\0", 5)), "\"x\\u0001y\\u001f\\u0000\"");
}

TEST(StringUtils, Padding) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("abcd", 2), "abcd");
}

TEST(Diagnostics, ContractViolationCarriesLocation) {
  try {
    AD_REQUIRE(false, "boom");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_EQ(e.condition(), "false");
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    EXPECT_GT(e.line(), 0);
  }
}

}  // namespace
}  // namespace ad
