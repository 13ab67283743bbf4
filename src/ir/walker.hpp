// Concrete iteration-space walking.
//
// Given numeric bindings for the program parameters, these helpers execute a
// phase's loop nest exactly as written (including non-rectangular bounds) and
// report every array access. They are the *ground truth* that descriptor
// predictions are validated against in the property tests, the access
// stream the trace simulator replays, and the closed-form counting core's
// exact fallback.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "ir/ir.hpp"

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

/// Calls `fn` for every array access of the phase in execution order.
void forEachAccess(const Program& program, const Phase& phase, const Bindings& params,
                   const std::function<void(const ConcreteAccess&, const Bindings&)>& fn);

/// Like forEachAccess, but walks only iterations of the parallel loop whose
/// index value satisfies `keep`; the nest is pruned at the parallel level, so
/// skipped chunks cost nothing. Phases without a parallel loop consult
/// keep(0) once for the whole nest. This is what lets each of the trace
/// simulator's processor threads walk exactly its own CYCLIC(p) chunks.
void forEachAccessWhere(const Program& program, const Phase& phase, const Bindings& params,
                        const std::function<bool(std::int64_t)>& keep,
                        const std::function<void(const ConcreteAccess&, const Bindings&)>& fn);

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

}  // namespace ad::ir
