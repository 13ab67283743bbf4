// Concrete iteration-space walking.
//
// Given numeric bindings for the program parameters, these helpers execute a
// phase's loop nest exactly as written (including non-rectangular bounds):
// the access stream the trace replay classifies and the counting core's
// exact fallback, checked against tests/reference_oracles.hpp's walk.
//
// forEachRun is the one core. Once per call it lowers every loop bound and
// subscript to an int64 affine form over the loop indices (parameters
// substituted, integer coefficients, checked arithmetic); each innermost run
// then gives, per ref, a start address and a step. An expression that does
// not lower (a loop index in a pow2 exponent, a fractional coefficient) is
// evaluated with evalInt: once per run when it is linear in the innermost
// index with an integral stride, else at every access, the run then going
// one iteration at a time. Before a run of two or more iterations is
// delivered, each ref's last address is compared with evalInt's.
// forEachAccess expands the runs access by access.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <utility>

#include "ir/ir.hpp"

namespace ad::ir {

using Bindings = std::map<sym::SymbolId, std::int64_t>;

/// One concrete array access produced by walking a nest.
struct ConcreteAccess {
  const ArrayRef* ref = nullptr;
  std::int64_t address = 0;       ///< evaluated linear subscript
  std::int64_t parallelIter = 0;  ///< value of the parallel loop index (0 if none)
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
void forEachRun(const Program& program, const Phase& phase, const Bindings& params,
                const RunFn& fn);

/// Calls `fn(const ConcreteAccess&, const Bindings&)` for every array access
/// of the phase in execution order: iteration by iteration, the phase's refs
/// in textual order, with every loop index bound. Throws as forEachRun does.
template <typename Fn>
void forEachAccess(const Program& program, const Phase& phase, const Bindings& params, Fn&& fn) {
  ConcreteAccess acc;
  forEachRun(program, phase, params, [&](const AccessRun& run, Bindings& b) {
    std::int64_t* index = phase.loops().empty() ? nullptr : &b.at(phase.loops().back().index);
    for (std::int64_t t = 0; t < run.count; ++t) {
      if (index != nullptr) *index = run.first + t;
      acc.parallelIter = run.parallelIterAt(t);
      for (const RefRun& r : run.refs) {
        acc.ref = r.ref;
        acc.address = r.start + r.step * t;
        fn(std::as_const(acc), std::as_const(b));
      }
    }
  });
}

/// `e` evaluated under `bindings`; throws AnalysisError ("<what> is not
/// integral") when the value is not an integer.
[[nodiscard]] std::int64_t evalInt(const sym::Expr& e, const Bindings& bindings,
                                   const char* what);

/// Number of iterations of the phase's parallel loop (its trip count) under
/// the given parameter bindings; 1 when the phase has no parallel loop.
[[nodiscard]] std::int64_t parallelTripCount(const Phase& phase, const Bindings& params);

}  // namespace ad::ir
