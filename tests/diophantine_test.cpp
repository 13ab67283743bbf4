#include <gtest/gtest.h>

#include "support/diagnostics.hpp"
#include "symbolic/diophantine.hpp"

namespace ad::sym {
namespace {

TEST(ExtendedGcd, BezoutIdentityHolds) {
  for (auto [a, b] : {std::pair<std::int64_t, std::int64_t>{12, 18},
                      {7, 13},
                      {-12, 18},
                      {12, -18},
                      {-7, -13},
                      {1, 1}}) {
    const auto eg = extendedGcd(a, b);
    EXPECT_EQ(eg.s * a + eg.t * b, eg.g) << a << "," << b;
    EXPECT_GT(eg.g, 0);
  }
  EXPECT_EQ(extendedGcd(12, 18).g, 6);
}

TEST(Diophantine, SimpleEquality) {
  // x = y, x,y in [1,10]: 10 solutions.
  auto fam = solveLinear2(1, 1, 0, {1, 10}, {1, 10});
  ASSERT_TRUE(fam.feasible());
  EXPECT_EQ(fam.count(), 10);
  EXPECT_EQ(fam.smallestX(), (std::pair<std::int64_t, std::int64_t>{1, 1}));
}

TEST(Diophantine, RatioEquation) {
  // 4x = 6y: solutions x=3t', y=2t' — within [1,12]x[1,12]: t'=1..4.
  auto fam = solveLinear2(4, 6, 0, {1, 12}, {1, 12});
  ASSERT_TRUE(fam.feasible());
  EXPECT_EQ(fam.count(), 4);
  for (auto [x, y] : fam.enumerate(100)) {
    EXPECT_EQ(4 * x, 6 * y);
  }
}

TEST(Diophantine, InfeasibleByGcd) {
  // 2x = 4y + 1 has no integer solutions.
  auto fam = solveLinear2(2, 4, 1, {1, 100}, {1, 100});
  EXPECT_FALSE(fam.feasible());
  EXPECT_EQ(fam.count(), 0);
}

TEST(Diophantine, InfeasibleByBounds) {
  // x = y + 50 with x,y in [1,10].
  auto fam = solveLinear2(1, 1, 50, {1, 10}, {1, 10});
  EXPECT_FALSE(fam.feasible());
}

TEST(Diophantine, PaperEquation4) {
  // TFFT2 F2-F3 (paper Eq. 4): p2 + 2*Q*P - P = 2*P*p3, i.e.
  // 1*p2 = 2P*p3 + (P - 2QP). With P=4, Q=3: p2 = 8*p3 - 20.
  const std::int64_t P = 4;
  const std::int64_t Q = 3;
  // Unbounded-ish ranges show the integer solution p2=P, p3=Q exists...
  auto wide = solveLinear2(1, 2 * P, P - 2 * Q * P, {1, 1000}, {1, 1000});
  ASSERT_TRUE(wide.feasible());
  bool found = false;
  for (auto [x, y] : wide.enumerate(2000)) {
    EXPECT_EQ(x, 2 * P * y + P - 2 * Q * P);
    if (x == P && y == Q) found = true;
  }
  EXPECT_TRUE(found);
  // ...but the load-balance bounds (Eqs. 5-6) with H=2 exclude all of them:
  // p2 <= ceil(P/H) = 2, p3 <= ceil(Q/H) = 2.
  auto bounded = solveLinear2(1, 2 * P, P - 2 * Q * P, {1, 2}, {1, 2});
  EXPECT_FALSE(bounded.feasible());
}

TEST(Diophantine, PaperPhasesF3F4) {
  // F3-F4 balanced condition reduces to p3 = p4, bounded by ceil(Q/H):
  // ceil(Q/H) integer solutions, exactly as the paper counts.
  const std::int64_t Q = 12;
  const std::int64_t H = 4;
  const std::int64_t bound = (Q + H - 1) / H;
  auto fam = solveLinear2(1, 1, 0, {1, bound}, {1, bound});
  ASSERT_TRUE(fam.feasible());
  EXPECT_EQ(fam.count(), bound);
  EXPECT_EQ(fam.smallestX(), (std::pair<std::int64_t, std::int64_t>{1, 1}));
}

TEST(Diophantine, NegativeCoefficients) {
  // -3x = -6y: same as x = 2y.
  auto fam = solveLinear2(-3, -6, 0, {1, 10}, {1, 10});
  ASSERT_TRUE(fam.feasible());
  for (auto [x, y] : fam.enumerate(100)) EXPECT_EQ(x, 2 * y);
  EXPECT_EQ(fam.count(), 5);
}

TEST(Diophantine, AtThrowsOutsideFamily) {
  auto fam = solveLinear2(1, 1, 0, {1, 3}, {1, 3});
  ASSERT_TRUE(fam.feasible());
  EXPECT_THROW((void)fam.at(fam.tHi + 1), ad::ContractViolation);
}

}  // namespace
}  // namespace ad::sym
