// Bounded linear Diophantine equations.
//
// The balanced locality condition (paper Eqs. 1-3) reduces to
//     a * p_k  =  b * p_g + c
// with chunk sizes bounded by the load-balance constraints
//     1 <= p_k <= Bk,   1 <= p_g <= Bg.
// This module solves that system exactly over the integers and exposes the
// whole (affine one-parameter) solution family, because the ILP stage wants
// to search over it, not just test feasibility.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace ad::sym {

struct IntRange {
  std::int64_t lo = 1;
  std::int64_t hi = 1;

  [[nodiscard]] bool contains(std::int64_t v) const noexcept { return lo <= v && v <= hi; }
};

/// Solution family for a*x = b*y + c with x in xr, y in yr:
/// x = x0 + xStep*t, y = y0 + yStep*t for integer t in [tLo, tHi].
struct DiophantineFamily {
  std::int64_t x0 = 0;
  std::int64_t y0 = 0;
  std::int64_t xStep = 0;
  std::int64_t yStep = 0;
  std::int64_t tLo = 0;
  std::int64_t tHi = -1;  // empty when tHi < tLo

  [[nodiscard]] bool feasible() const noexcept { return tHi >= tLo; }
  [[nodiscard]] std::int64_t count() const noexcept { return feasible() ? tHi - tLo + 1 : 0; }
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> at(std::int64_t t) const;
  /// The solution with the smallest x value.
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> smallestX() const;
  /// Enumerate up to `maxCount` solutions (in increasing t).
  [[nodiscard]] std::vector<std::pair<std::int64_t, std::int64_t>> enumerate(
      std::size_t maxCount) const;
};

/// Extended gcd: returns g = gcd(a, b) and (s, t) with s*a + t*b = g.
struct ExtendedGcd {
  std::int64_t g = 0;
  std::int64_t s = 0;
  std::int64_t t = 0;
};
[[nodiscard]] ExtendedGcd extendedGcd(std::int64_t a, std::int64_t b);

/// Solve a*x = b*y + c over integers with x in xr and y in yr. Requires
/// a != 0 and b != 0. Returns the bounded solution family (possibly empty).
[[nodiscard]] DiophantineFamily solveLinear2(std::int64_t a, std::int64_t b, std::int64_t c,
                                             IntRange xr, IntRange yr);

}  // namespace ad::sym
