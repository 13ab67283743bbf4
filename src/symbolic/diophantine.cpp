#include "symbolic/diophantine.hpp"

#include <algorithm>
#include <limits>

#include "support/budget.hpp"
#include "support/checked_int.hpp"
#include "support/diagnostics.hpp"

namespace ad::sym {

std::pair<std::int64_t, std::int64_t> DiophantineFamily::at(std::int64_t t) const {
  AD_REQUIRE(feasible() && t >= tLo && t <= tHi, "t outside the solution family");
  return {checkedAdd(x0, checkedMul(xStep, t)), checkedAdd(y0, checkedMul(yStep, t))};
}

std::pair<std::int64_t, std::int64_t> DiophantineFamily::smallestX() const {
  AD_REQUIRE(feasible(), "empty solution family");
  return at(xStep >= 0 ? tLo : tHi);
}

std::vector<std::pair<std::int64_t, std::int64_t>> DiophantineFamily::enumerate(
    std::size_t maxCount) const {
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  if (!feasible()) return out;
  for (std::int64_t t = tLo; t <= tHi && out.size() < maxCount; ++t) {
    // Budget exhaustion truncates the enumeration: callers treat a shorter
    // solution list as "fewer proven-coupled points", which is conservative.
    if (!support::budgetStep()) break;
    out.push_back(at(t));
  }
  return out;
}

ExtendedGcd extendedGcd(std::int64_t a, std::int64_t b) {
  // Iterative extended Euclid on magnitudes, signs fixed up afterwards.
  std::int64_t oldR = a < 0 ? -a : a;
  std::int64_t r = b < 0 ? -b : b;
  std::int64_t oldS = 1;
  std::int64_t s = 0;
  std::int64_t oldT = 0;
  std::int64_t t = 1;
  while (r != 0) {
    const std::int64_t q = oldR / r;
    std::int64_t tmp = oldR - q * r;
    oldR = r;
    r = tmp;
    tmp = oldS - q * s;
    oldS = s;
    s = tmp;
    tmp = oldT - q * t;
    oldT = t;
    t = tmp;
  }
  if (a < 0) oldS = -oldS;
  if (b < 0) oldT = -oldT;
  return ExtendedGcd{oldR, oldS, oldT};
}

namespace {

/// Intersect the constraint lo <= v0 + step*t <= hi with the running
/// t-interval [tLo, tHi]. Returns false when the result is empty.
bool clampParam(std::int64_t v0, std::int64_t step, std::int64_t lo, std::int64_t hi,
                std::int64_t& tLo, std::int64_t& tHi) {
  if (step == 0) return v0 >= lo && v0 <= hi;
  // lo - v0 <= step*t <= hi - v0
  const std::int64_t a = checkedSub(lo, v0);
  const std::int64_t b = checkedSub(hi, v0);
  std::int64_t newLo;
  std::int64_t newHi;
  if (step > 0) {
    newLo = ceilDiv(a, step);
    newHi = floorDiv(b, step);
  } else {
    newLo = ceilDiv(b, step);
    newHi = floorDiv(a, step);
  }
  tLo = std::max(tLo, newLo);
  tHi = std::min(tHi, newHi);
  return tLo <= tHi;
}

}  // namespace

DiophantineFamily solveLinear2(std::int64_t a, std::int64_t b, std::int64_t c, IntRange xr,
                               IntRange yr) {
  AD_REQUIRE(a != 0 && b != 0, "degenerate diophantine equation");
  // a*x - b*y = c.
  DiophantineFamily fam;
  // Exhaustion degrades to the empty family: "no proven alignment", which the
  // locality layer maps to not-balanced (edge label C), never to a spurious L.
  if (!support::budgetStep()) return fam;
  const ExtendedGcd eg = extendedGcd(a, -b);
  if (c % eg.g != 0) return fam;  // infeasible: empty family (tHi < tLo)
  const std::int64_t scale = c / eg.g;
  std::int64_t x0 = checkedMul(eg.s, scale);
  std::int64_t y0 = checkedMul(eg.t, scale);
  // Homogeneous steps: x += (-b)/g * t flips sign — use (b/g, a/g) so that
  // a*(x0 + (b/g)t) - b*(y0 + (a/g)t) stays equal to c.
  const std::int64_t xStep = b / eg.g;
  const std::int64_t yStep = a / eg.g;

  std::int64_t tLo = std::numeric_limits<std::int64_t>::min() / 4;
  std::int64_t tHi = std::numeric_limits<std::int64_t>::max() / 4;
  if (!clampParam(x0, xStep, xr.lo, xr.hi, tLo, tHi)) return fam;
  if (!clampParam(y0, yStep, yr.lo, yr.hi, tLo, tHi)) return fam;

  // Re-base so t starts at 0 (keeps downstream arithmetic small).
  fam.x0 = checkedAdd(x0, checkedMul(xStep, tLo));
  fam.y0 = checkedAdd(y0, checkedMul(yStep, tLo));
  fam.xStep = xStep;
  fam.yStep = yStep;
  fam.tLo = 0;
  fam.tHi = checkedSub(tHi, tLo);
  return fam;
}

}  // namespace ad::sym
