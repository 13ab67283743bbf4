// Element-enumerating reference oracles, and the sort-based Expr kernels.
//
// dsm::simulate counts accesses from arithmetic progressions,
// comm::generateGlobal / verifiesRedistribution walk owner runs, and
// ir::forEachRun lowers subscripts to integers and steps them along the
// innermost loop. The
// functions here do the same work the obvious way — one access, one element
// at a time, every subscript evaluated — and exist only so the tests can
// compare the two field by field.
//
// Expr's +, - and substitute merge canonical term lists in one pass; the
// kernels here build the same sums the obvious way — concatenate the term
// lists, sort them, combine like terms — so expr_test can compare the two.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "comm/schedule.hpp"
#include "dsm/access_count.hpp"
#include "dsm/machine.hpp"
#include "ir/walker.hpp"
#include "symbolic/expr.hpp"

namespace ad::reference {

/// a + b: both term lists concatenated, sorted and like terms combined.
[[nodiscard]] sym::Expr add(const sym::Expr& a, const sym::Expr& b);
/// a + (-b), with -b materialised.
[[nodiscard]] sym::Expr subtract(const sym::Expr& a, const sym::Expr& b);
/// Every monomial rebuilt as coeff * value^power * ... * pow2(substituted
/// exponent) from sort-based products and summed one monomial at a time.
[[nodiscard]] sym::Expr substitute(const sym::Expr& e,
                                   const std::map<sym::SymbolId, sym::Expr>& bindings);

/// Calls `fn` once per iteration of the phase's full loop nest, innermost
/// last, passing the complete index bindings (parameters + loop indices).
/// Loop bounds are evaluated on the fly, so triangular/coupled nests work.
/// Throws AnalysisError if a bound does not evaluate to an integer.
void forEachIteration(const ir::Program& program, const ir::Phase& phase,
                      const ir::Bindings& params,
                      const std::function<void(const ir::Bindings&)>& fn);

/// ir::forEachAccess without runs or lowering: walks the nest with
/// forEachIteration and evaluates every subscript with Expr::evaluate at
/// every access.
void forEachAccess(const ir::Program& program, const ir::Phase& phase,
                   const ir::Bindings& params,
                   const std::function<void(const ir::ConcreteAccess&, const ir::Bindings&)>& fn);

/// All distinct addresses of `array` touched by the phase (any access kind).
[[nodiscard]] std::vector<std::int64_t> touchedAddresses(const ir::Program& program,
                                                         const ir::Phase& phase,
                                                         const std::string& array,
                                                         const ir::Bindings& params);

/// All distinct addresses of `array` touched by the single parallel iteration
/// `iter` of the phase (phase must have a parallel loop).
[[nodiscard]] std::vector<std::int64_t> touchedAddressesInIteration(
    const ir::Program& program, const ir::Phase& phase, const std::string& array,
    const ir::Bindings& params, std::int64_t iter);

/// Replays every access of `program` under `plan` and charges it with
/// `machine`: per phase, global redistributions (element by element), then
/// frontier refreshes (H >= 2), then the phase's accesses.
[[nodiscard]] dsm::SimulationResult simulate(const ir::Program& program,
                                             const ir::Bindings& params,
                                             const dsm::MachineParams& machine,
                                             const dsm::ExecutionPlan& plan);

/// dsm::countPlan's per-(phase, array, processor) access tallies, one
/// access at a time: every access classified with DataDistribution::isLocal
/// on the processor executing it. Arrays in first-reference order, as the
/// counting core lists them; dsm::kWordBytes charged per remote access.
[[nodiscard]] std::vector<dsm::PhaseTally> countAccesses(const ir::Program& program,
                                                         const ir::Bindings& params,
                                                         const dsm::ExecutionPlan& plan,
                                                         std::int64_t processors);

/// One (src, dst, element) tuple per moving element, sorted and coalesced.
[[nodiscard]] comm::CommSchedule generateGlobal(const std::string& array, std::int64_t size,
                                                const dsm::DataDistribution& from,
                                                const dsm::DataDistribution& to,
                                                std::int64_t processors);

/// Checks every element of every range, then per-element coverage.
[[nodiscard]] bool verifiesRedistribution(const comm::CommSchedule& schedule, std::int64_t size,
                                          const dsm::DataDistribution& from,
                                          const dsm::DataDistribution& to,
                                          std::int64_t processors);

}  // namespace ad::reference
