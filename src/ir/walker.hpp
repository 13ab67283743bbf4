// A phase lowered to integers, and the walk of its iteration space.
//
// LoweredPhase is a phase's one lowered form under numeric parameter
// bindings, built once per (phase, bindings): loop bounds and subscripts as
// int64 affine forms over the loop indices (checked arithmetic), and per
// (ref, loop) the stride an iteration of the loop adds to the ref's
// addresses inside it, when that shift is uniform: the subscript is linear in
// the index, its coefficient is integral and free of deeper indices, and no
// deeper bound mentions the index. A coefficient that does not lower (a pow2
// factor such as TFFT2's 2^(L-1)) is evaluated at the outer indices; anything
// else that does not lower is evaluated with evalInt where it is read.
//
// forEachRun executes the nest as written and delivers each innermost run:
// per ref a start address and the innermost stride (a ref without one goes
// one iteration at a time), each last address checked against evalInt. The
// trace replay (sim/) classifies these runs; the counting core
// (dsm/access_count) collapses loops from the same strides and walks the runs
// where it cannot. Access-by-access walks live only in the tests.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "ir/ir.hpp"

namespace ad::ir {

using Bindings = std::map<sym::SymbolId, std::int64_t>;

/// Where a phase's lowered form is read: the loop index values, outermost
/// first (only the enclosing loops need be bound), and the parameters with
/// the same indices bound, for what does not lower.
struct NestPoint {
  std::vector<std::int64_t> idx;
  Bindings bindings;
};

/// A phase lowered once under parameter bindings (see file comment).
class LoweredPhase {
 public:
  /// {c, a_0, ..., a_(d-1)}: c + sum_k a_k * index_k over the outermost d
  /// loop indices. Empty when the expression does not lower.
  using Affine = std::vector<std::int64_t>;

  LoweredPhase(const Phase& phase, const Bindings& params);

  [[nodiscard]] const Phase& phase() const noexcept { return phase_; }
  /// The parameters, with no loop index bound.
  [[nodiscard]] NestPoint origin() const;
  /// Binds loop `d`'s index to `v` at `at`.
  void bind(NestPoint& at, std::size_t d, std::int64_t v) const;
  /// Loop `d`'s first index value and trip count at `at` (its enclosing
  /// loops bound): 0 trips for an empty range; ContractViolation when the
  /// count overflows.
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> range(std::size_t d,
                                                            const NestPoint& at) const;
  /// Ref `k`'s address at `at` (every loop bound).
  [[nodiscard]] std::int64_t address(std::size_t k, const NestPoint& at) const;
  /// What each iteration of loop `d` adds to every address ref `k` makes
  /// inside it, at `at` (its enclosing loops bound); nullopt when that shift
  /// is not uniform or not an integer.
  [[nodiscard]] std::optional<std::int64_t> stride(std::size_t k, std::size_t d,
                                                   const NestPoint& at) const;

 private:
  /// One (ref, loop) coefficient: lowered over the outer indices, else the
  /// expression (none when the shift is not uniform).
  struct Stride {
    Affine affine;
    std::optional<sym::Expr> expr;
  };

  const Phase& phase_;
  Bindings params_;
  std::vector<std::pair<Affine, Affine>> bounds_;  ///< lower and upper, per loop
  std::vector<Affine> subscripts_;                 ///< per ref
  std::vector<Stride> strides_;                    ///< [ref * loops + loop]
};

/// One ref's addresses over a run: start, start + step, start + 2*step, ...
struct RefRun {
  const ArrayRef* ref = nullptr;
  std::int64_t start = 0;
  std::int64_t step = 0;
};

/// `count` consecutive iterations of a phase's innermost loop, from index
/// value `first`; at each of them every ref of `refs` is accessed, in order.
/// A phase without loops is one run of one iteration.
struct AccessRun {
  std::int64_t first = 0;         ///< innermost index at the first iteration
  std::int64_t count = 0;         ///< iterations, >= 1
  std::int64_t parallelIter = 0;  ///< the DOALL index when the DOALL encloses the run (0 if none)
  bool parallelIsInner = false;   ///< the DOALL is the run's own loop
  /// All of the phase's refs in textual order; a prefix only in the
  /// one-iteration run delivered just before the walk throws at the next ref.
  std::span<const RefRun> refs;

  /// The parallel iteration that executes iteration `t` of the run.
  [[nodiscard]] std::int64_t parallelIterAt(std::int64_t t) const {
    return parallelIsInner ? first + t : parallelIter;
  }
};

/// Called once per run, with every loop index bound (the innermost at
/// `run.first`); the callee may rebind only the innermost index.
using RunFn = std::function<void(const AccessRun&, Bindings&)>;

/// Calls `fn` for every innermost run of the phase's nest, in execution
/// order. A bound or subscript that is not an integer throws AnalysisError
/// at its access, after the accesses before it were delivered; so does a
/// run whose last address differs from its evaluation ("... diverged").
void forEachRun(const LoweredPhase& phase, const RunFn& fn);

/// `e` evaluated under `bindings`; throws AnalysisError ("<what> is not
/// integral") when the value is not an integer.
[[nodiscard]] std::int64_t evalInt(const sym::Expr& e, const Bindings& bindings,
                                   const char* what);

/// Number of iterations of the phase's parallel loop (its trip count) under
/// the given parameter bindings; 1 when the phase has no parallel loop.
/// ContractViolation when the count overflows.
[[nodiscard]] std::int64_t parallelTripCount(const Phase& phase, const Bindings& params);

}  // namespace ad::ir
