// Periodic interval sets and exact arithmetic-progression counting.
//
// The closed-form trace validator (locality/symbolic_validate) reduces "how
// many accesses of this descriptor region land in processor pe's local
// memory?" to counting the points of an arithmetic progression whose residues
// mod M fall inside a union of intervals — M being the ownership period of
// the distribution (block * processors for BLOCK-CYCLIC, the mirror period
// for folded storage). Each interval query is answered by the Euclidean
// floor-sum, so a count over N accesses costs O(log) integer operations
// instead of N classifications; a progression spanning at most two periods
// is counted by two divisions per interval it overlaps.
//
// Everything here is exact 64-bit integer arithmetic (128-bit internally);
// there is no approximation anywhere — these counts are compared
// byte-for-byte against the enumerating simulator.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace ad::sym {

/// Sum_{j=0}^{n-1} floor((a + s*j) / m) for m > 0, any signed a and s.
/// O(log m) via the Euclidean algorithm; exact (128-bit intermediates).
[[nodiscard]] std::int64_t floorSum(std::int64_t a, std::int64_t s, std::int64_t n,
                                    std::int64_t m);

/// #{ j in [0, n) : (a + s*j) mod m  in [lo, hi) }, Euclidean mod,
/// 0 <= lo <= hi <= m. Two floorSums, by the identity
/// [x mod m in [lo, hi)] = floor((x-lo)/m) - floor((x-hi)/m).
[[nodiscard]] std::int64_t countResiduesIn(std::int64_t a, std::int64_t s, std::int64_t n,
                                           std::int64_t m, std::int64_t lo, std::int64_t hi);

/// base + stride*j for j in [0, count), each address hit `repeat` times.
/// Canonical form: stride >= 0, and stride == 0 iff count <= 1 (pure
/// repetition is folded into `repeat`). Use make() to canonicalize.
struct ArithmeticProgression {
  std::int64_t base = 0;
  std::int64_t stride = 0;
  std::int64_t count = 0;
  std::int64_t repeat = 1;

  /// Canonicalizes a raw (possibly negative-stride) progression.
  [[nodiscard]] static ArithmeticProgression make(std::int64_t base, std::int64_t stride,
                                                  std::int64_t count, std::int64_t repeat = 1);
  /// Total number of accesses described (count * repeat).
  [[nodiscard]] std::int64_t total() const noexcept { return count * repeat; }
};

/// A union of half-open intervals on Z/period, normalized (sorted, disjoint,
/// non-adjacent) so membership and AP counting are deterministic.
class PeriodicIntervalSet {
 public:
  explicit PeriodicIntervalSet(std::int64_t period);

  /// Adds each (start, len) piece, [start, start+len) taken mod period
  /// (wrapping allowed; len >= period covers the whole set), then
  /// normalizes once.
  void addWrapped(const std::vector<std::pair<std::int64_t, std::int64_t>>& pieces);

  [[nodiscard]] std::int64_t period() const noexcept { return period_; }
  [[nodiscard]] const std::vector<std::pair<std::int64_t, std::int64_t>>& intervals()
      const noexcept {
    return intervals_;
  }
  [[nodiscard]] bool coversEverything() const noexcept {
    return intervals_.size() == 1 && intervals_[0].first == 0 && intervals_[0].second == period_;
  }

  /// Membership of one address (classified by its Euclidean residue).
  [[nodiscard]] bool contains(std::int64_t addr) const;

  /// Exact number of accesses of `ap` whose residues lie in the set
  /// (multiplicity included). A progression spanning at most two periods is
  /// counted interval by interval from the first one it overlaps (found by
  /// binary search); a longer one costs two floorSums per interval.
  [[nodiscard]] std::int64_t countAP(const ArithmeticProgression& ap) const;

 private:
  void normalize();

  std::int64_t period_;
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals_;
};

/// The locality set of processor `pe` under BLOCK-CYCLIC(block) with a
/// replicated halo of `halo` elements on each side of every owned block:
/// exactly the addresses dsm::DataDistribution::isLocal accepts, as a
/// periodic set with period block * processors.
[[nodiscard]] PeriodicIntervalSet localIntervals(std::int64_t block, std::int64_t processors,
                                                 std::int64_t pe, std::int64_t halo);

}  // namespace ad::sym
