#include "symbolic/interval_set.hpp"

#include <algorithm>

#include "support/checked_int.hpp"
#include "support/diagnostics.hpp"

namespace ad::sym {

namespace {

/// Non-negative case of the floor sum (a, s >= 0), the classic Euclidean
/// descent: strip the whole multiples of m, then swap the roles of slope and
/// modulus. Terminates in O(log) like gcd.
unsigned __int128 floorSumUnsigned(unsigned __int128 n, unsigned __int128 m,
                                   unsigned __int128 s, unsigned __int128 a) {
  unsigned __int128 ans = 0;
  while (true) {
    if (s >= m) {
      ans += n * (n - 1) / 2 * (s / m);
      s %= m;
    }
    if (a >= m) {
      ans += n * (a / m);
      a %= m;
    }
    const unsigned __int128 yMax = s * n + a;
    if (yMax < m) break;
    n = yMax / m;
    a = yMax % m;
    std::swap(m, s);
  }
  return ans;
}

}  // namespace

std::int64_t floorSum(std::int64_t a, std::int64_t s, std::int64_t n, std::int64_t m) {
  AD_REQUIRE(m > 0, "floorSum modulus must be positive");
  AD_REQUIRE(n >= 0, "floorSum count must be non-negative");
  if (n == 0) return 0;
  __int128 ans = 0;
  std::uint64_t ua = 0;
  std::uint64_t us = 0;
  if (a < 0) {
    const std::int64_t a2 = euclidMod(a, m);
    ans -= static_cast<__int128>(n) * ((a2 - a) / m);
    ua = static_cast<std::uint64_t>(a2);
  } else {
    ua = static_cast<std::uint64_t>(a);
  }
  if (s < 0) {
    const std::int64_t s2 = euclidMod(s, m);
    ans -= static_cast<__int128>(n) * (n - 1) / 2 * ((s2 - s) / m);
    us = static_cast<std::uint64_t>(s2);
  } else {
    us = static_cast<std::uint64_t>(s);
  }
  ans += static_cast<__int128>(
      floorSumUnsigned(static_cast<unsigned __int128>(n), static_cast<unsigned __int128>(m),
                       us, ua));
  AD_REQUIRE(ans >= INT64_MIN && ans <= INT64_MAX, "floorSum overflow");
  return static_cast<std::int64_t>(ans);
}

std::int64_t countResiduesIn(std::int64_t a, std::int64_t s, std::int64_t n, std::int64_t m,
                             std::int64_t lo, std::int64_t hi) {
  AD_REQUIRE(0 <= lo && lo <= hi && hi <= m, "countResiduesIn interval out of range");
  if (n == 0 || lo == hi) return 0;
  // [x mod m in [lo, hi)] = floor((x - lo) / m) - floor((x - hi) / m).
  return floorSum(checkedSub(a, lo), s, n, m) - floorSum(checkedSub(a, hi), s, n, m);
}

ArithmeticProgression ArithmeticProgression::make(std::int64_t base, std::int64_t stride,
                                                  std::int64_t count, std::int64_t repeat) {
  AD_REQUIRE(count >= 0 && repeat >= 1, "bad progression shape");
  ArithmeticProgression ap;
  if (count == 0) return ap;
  if (stride < 0) {
    base = checkedAdd(base, checkedMul(stride, count - 1));
    stride = -stride;
  }
  if (stride == 0 && count > 1) {
    repeat = checkedMul(repeat, count);
    count = 1;
  }
  if (count == 1) stride = 0;
  ap.base = base;
  ap.stride = stride;
  ap.count = count;
  ap.repeat = repeat;
  return ap;
}

PeriodicIntervalSet::PeriodicIntervalSet(std::int64_t period) : period_(period) {
  AD_REQUIRE(period > 0, "interval-set period must be positive");
}

void PeriodicIntervalSet::addWrapped(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& pieces) {
  for (const auto& [start, len] : pieces) {
    if (len <= 0) continue;
    if (len >= period_) {
      intervals_.emplace_back(0, period_);
      continue;
    }
    const std::int64_t s = euclidMod(start, period_);
    if (s + len <= period_) {
      intervals_.emplace_back(s, s + len);
    } else {
      intervals_.emplace_back(s, period_);
      intervals_.emplace_back(0, s + len - period_);
    }
  }
  normalize();
}

void PeriodicIntervalSet::normalize() {
  std::sort(intervals_.begin(), intervals_.end());
  std::vector<std::pair<std::int64_t, std::int64_t>> merged;
  for (const auto& iv : intervals_) {
    if (!merged.empty() && iv.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, iv.second);
    } else {
      merged.push_back(iv);
    }
  }
  intervals_ = std::move(merged);
}

bool PeriodicIntervalSet::contains(std::int64_t addr) const {
  const std::int64_t r = euclidMod(addr, period_);
  auto it = std::upper_bound(intervals_.begin(), intervals_.end(),
                             std::make_pair(r, INT64_MAX));
  if (it == intervals_.begin()) return false;
  --it;
  return r < it->second;
}

std::int64_t PeriodicIntervalSet::countAP(const ArithmeticProgression& ap) const {
  if (ap.count == 0 || intervals_.empty()) return 0;
  if (coversEverything()) return ap.total();
  if (ap.stride == 0) return contains(ap.base) ? ap.total() : 0;
  const std::int64_t last = checkedAdd(ap.base, checkedMul(ap.stride, ap.count - 1));
  std::int64_t inSet = 0;
  if (checkedSub(last, ap.base) / 2 < period_) {
    // The span covers at most two periods (three windows): count the points
    // in each interval it overlaps directly, from the first one on.
    std::int64_t window = checkedMul(floorDiv(ap.base, period_), period_);
    auto it = std::upper_bound(intervals_.begin(), intervals_.end(), ap.base - window,
                               [](std::int64_t r, const auto& iv) { return r < iv.second; });
    for (;; ++it) {
      if (it == intervals_.end()) {
        window = checkedAdd(window, period_);
        it = intervals_.begin();
      }
      const std::int64_t lo = checkedAdd(window, it->first);
      if (lo > last) break;
      // j with base + stride * j in [lo, hi), clipped to [0, count).
      const std::int64_t first = std::max<std::int64_t>(0, ceilDiv(lo - ap.base, ap.stride));
      const std::int64_t end = std::min(
          ap.count, ceilDiv(checkedAdd(window, it->second) - ap.base, ap.stride));
      inSet += std::max<std::int64_t>(0, end - first);
    }
  } else {
    for (const auto& [lo, hi] : intervals_) {
      inSet += countResiduesIn(ap.base, ap.stride, ap.count, period_, lo, hi);
    }
  }
  return checkedMul(inSet, ap.repeat);
}

PeriodicIntervalSet localIntervals(std::int64_t block, std::int64_t processors, std::int64_t pe,
                                   std::int64_t halo) {
  AD_REQUIRE(block >= 1 && processors >= 1 && pe >= 0 && pe < processors,
             "bad locality-set parameters");
  PeriodicIntervalSet set(checkedMul(block, processors));
  // pe holds the `hl` elements following each of its blocks and the `hl`
  // elements preceding them. A halo deeper than one block (multi-row sliding
  // windows) keeps reaching across further neighbours; addWrapped saturates
  // once the whole period is covered.
  const std::int64_t hl = std::min(std::max<std::int64_t>(halo, 0), set.period());
  set.addWrapped({{pe * block, block}, {(pe + 1) * block, hl}, {pe * block - hl, hl}});
  return set;
}

}  // namespace ad::sym
