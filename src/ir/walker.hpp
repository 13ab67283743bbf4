// Concrete iteration-space walking.
//
// Given numeric bindings for the program parameters, these helpers execute a
// phase's loop nest exactly as written (including non-rectangular bounds) and
// report every array access. They are the *ground truth* that descriptor
// predictions are validated against in the property tests, the access
// stream the serial trace replay classifies, and the closed-form counting
// core's exact fallback.
//
// forEachAccess is strength-reduced: a subscript that is a*i + b in the
// innermost index i is evaluated once per innermost run and then stepped by
// `a`. Subscripts that are not linear in i, or whose stride is not an
// integer, are evaluated at every access. At the end of every run of two or
// more iterations, each stepped address is compared with a full evaluation,
// so a wrong stride is caught there, after the run's accesses have been
// delivered.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "ir/ir.hpp"
#include "support/checked_int.hpp"

namespace ad::ir {

using Bindings = std::map<sym::SymbolId, std::int64_t>;

/// One concrete array access produced by walking a nest.
struct ConcreteAccess {
  const ArrayRef* ref = nullptr;
  std::int64_t address = 0;       ///< evaluated linear subscript
  std::int64_t parallelIter = 0;  ///< value of the parallel loop index (0 if none)
};

/// Calls `fn` once per iteration of the phase's full loop nest, innermost
/// last, passing the complete index bindings (parameters + loop indices).
/// Loop bounds are evaluated on the fly, so triangular/coupled nests work.
/// Throws AnalysisError if a bound or subscript does not evaluate to an
/// integer.
void forEachIteration(const Program& program, const Phase& phase, const Bindings& params,
                      const std::function<void(const Bindings&)>& fn);

/// Calls `fn(const ConcreteAccess&, const Bindings&)` for every array access
/// of the phase in execution order: iteration by iteration, the phase's refs
/// in textual order. Throws AnalysisError ("subscript is not integral") at
/// the first access whose subscript is not an integer. Defined below.
template <typename Fn>
void forEachAccess(const Program& program, const Phase& phase, const Bindings& params, Fn&& fn);

/// All distinct addresses of `array` touched by the phase (any access kind).
[[nodiscard]] std::vector<std::int64_t> touchedAddresses(const Program& program,
                                                         const Phase& phase,
                                                         const std::string& array,
                                                         const Bindings& params);

/// All distinct addresses of `array` touched by the single parallel iteration
/// `iter` of the phase (phase must have a parallel loop).
[[nodiscard]] std::vector<std::int64_t> touchedAddressesInIteration(const Program& program,
                                                                    const Phase& phase,
                                                                    const std::string& array,
                                                                    const Bindings& params,
                                                                    std::int64_t iter);

/// `e` evaluated under `bindings`; throws AnalysisError ("<what> is not
/// integral") when the value is not an integer.
[[nodiscard]] std::int64_t evalInt(const sym::Expr& e, const Bindings& bindings,
                                   const char* what);

/// Number of iterations of the phase's parallel loop (its trip count) under
/// the given parameter bindings; 1 when the phase has no parallel loop.
[[nodiscard]] std::int64_t parallelTripCount(const Phase& phase, const Bindings& params);

namespace detail {

/// Walks loops [depth, stop) of the nest, binding each index in `b`, and
/// calls `fn(b)` once per iteration of loop stop - 1 (once, if depth == stop).
template <typename Fn>
void walkLoops(const Phase& phase, Bindings& b, std::size_t depth, std::size_t stop, Fn& fn) {
  if (depth == stop) {
    fn(b);
    return;
  }
  const Loop& l = phase.loops()[depth];
  const std::int64_t lo = evalInt(l.lower, b, "loop lower bound");
  const std::int64_t hi = evalInt(l.upper, b, "loop upper bound");
  for (std::int64_t v = lo; v <= hi; ++v) {
    b[l.index] = v;
    walkLoops(phase, b, depth + 1, stop, fn);
  }
  b.erase(l.index);
}

/// The per-ref addresses of one innermost run of forEachAccess. A subscript
/// that is a*i + b in the innermost index i, with `a` an integer under the
/// run's bindings, is evaluated at the run's first iteration and then
/// stepped by `a`; any other subscript is evaluated at every access.
class AccessStepper {
 public:
  explicit AccessStepper(const Phase& phase);

  /// The address of ref `r` at the run's first iteration.
  std::int64_t first(std::size_t r, const Bindings& b) {
    return slots_[r].addr = evalInt((*refs_)[r].subscript, b, "subscript");
  }
  /// After the first iteration of a run that has more: fixes each stride.
  void beginSteps(const Bindings& b);
  /// The address of ref `r` at the next iteration. An overflowing step
  /// falls back to the full evaluation, which then fails exactly as an
  /// unstepped walk would.
  std::int64_t next(std::size_t r, const Bindings& b) {
    Slot& s = slots_[r];
    if (s.stepped) {
      if (const auto n = tryAdd(s.addr, s.step)) return s.addr = *n;
    }
    return first(r, b);
  }
  /// At the last iteration of a run of two or more: throws AnalysisError
  /// when a stepped address differs from the evaluated subscript. Only the
  /// run's last address is compared, after all of them were delivered.
  void checkSteps(const Bindings& b) const;

 private:
  struct Slot {
    std::int64_t addr = 0;  ///< the ref's address at the current iteration
    std::int64_t step = 0;
    bool stepped = false;   ///< this run steps the address by `step`
  };
  const std::vector<ArrayRef>* refs_;
  std::vector<std::optional<sym::Expr>> stride_;  ///< a, when linear in i
  std::vector<Slot> slots_;
};

}  // namespace detail

template <typename Fn>
void forEachAccess(const Program& program, const Phase& phase, const Bindings& params, Fn&& fn) {
  (void)program;
  const std::vector<ArrayRef>& refs = phase.refs();
  const std::vector<Loop>& loops = phase.loops();
  Bindings b = params;
  ConcreteAccess acc;
  if (loops.empty()) {
    for (const auto& r : refs) {
      acc.ref = &r;
      acc.address = evalInt(r.subscript, b, "subscript");
      fn(std::as_const(acc), std::as_const(b));
    }
    return;
  }
  const Loop& inner = loops.back();
  const bool hasPar = phase.hasParallelLoop();
  const bool parIsInner = hasPar && phase.parallelLoopPos() + 1 == loops.size();
  detail::AccessStepper stepper(phase);
  const std::size_t nrefs = refs.size();
  auto run = [&](Bindings& outer) {
    const std::int64_t lo = evalInt(inner.lower, outer, "loop lower bound");
    const std::int64_t hi = evalInt(inner.upper, outer, "loop upper bound");
    if (lo > hi) return;
    std::int64_t& v = outer[inner.index];
    if (hasPar && !parIsInner) acc.parallelIter = outer.at(phase.parallelLoop().index);
    for (v = lo;; ++v) {
      if (parIsInner) acc.parallelIter = v;
      for (std::size_t r = 0; r < nrefs; ++r) {
        acc.ref = &refs[r];
        acc.address = v == lo ? stepper.first(r, outer) : stepper.next(r, outer);
        fn(std::as_const(acc), std::as_const(outer));
      }
      if (v == hi) break;
      if (v == lo) stepper.beginSteps(outer);
    }
    if (hi > lo) stepper.checkSteps(outer);
    outer.erase(inner.index);
  };
  detail::walkLoops(phase, b, 0, loops.size() - 1, run);
}

}  // namespace ad::ir
