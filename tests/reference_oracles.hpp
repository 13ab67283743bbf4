// Element-enumerating reference oracles, and the sort-based Expr kernels.
//
// dsm::simulate counts accesses from arithmetic progressions,
// comm::generateGlobal / verifiesRedistribution walk owner runs, and
// ir::forEachRun lowers subscripts to integers and steps them along the
// innermost loop. The functions here do the same work the obvious way — one
// access, one element at a time, every subscript evaluated — and exist only
// so the tests can compare the two field by field. The checks that need
// every access on its own (a plan's data flow, privatizability) live here
// too, walking forEachRun's runs access by access.
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

/// One concrete array access produced by walking a nest.
struct ConcreteAccess {
  const ir::ArrayRef* ref = nullptr;
  std::int64_t address = 0;       ///< evaluated linear subscript
  std::int64_t parallelIter = 0;  ///< value of the parallel loop index (0 if none)
};

using AccessFn = std::function<void(const ConcreteAccess&, const ir::Bindings&)>;

/// ir::forEachRun's runs expanded access by access: every array access of
/// the phase in execution order, iteration by iteration, the phase's refs in
/// textual order, with every loop index bound. Throws as forEachRun does.
void forEachRunAccess(const ir::Program& program, const ir::Phase& phase,
                      const ir::Bindings& params, const AccessFn& fn);

/// Calls `fn` once per iteration of the phase's full loop nest, innermost
/// last, passing the complete index bindings (parameters + loop indices).
/// Loop bounds are evaluated on the fly, so triangular/coupled nests work.
/// Throws AnalysisError if a bound does not evaluate to an integer.
void forEachIteration(const ir::Program& program, const ir::Phase& phase,
                      const ir::Bindings& params,
                      const std::function<void(const ir::Bindings&)>& fn);

/// forEachRunAccess without runs or lowering: walks the nest with
/// forEachIteration and evaluates every subscript with Expr::evaluate at
/// every access.
void forEachAccess(const ir::Program& program, const ir::Phase& phase,
                   const ir::Bindings& params, const AccessFn& fn);

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

struct DataFlowReport {
  std::int64_t readsChecked = 0;
  std::int64_t staleReads = 0;
  std::vector<std::string> diagnostics;  ///< first few offending reads

  [[nodiscard]] bool ok() const noexcept { return staleReads == 0; }
};

/// Checks that `plan` is value-correct, not only where accesses land: every
/// read served from a processor's local memory (owned block, replicated
/// halo, or replicated array) must observe the value a sequential execution
/// would. Every array element carries a version, bumped on each write in
/// program order. Owners are updated in place (a write by the executing
/// processor reaches the owner's copy directly or as a put); halo and
/// replica copies go stale on writes and are refreshed only by the plan's
/// frontier exchanges and redistributions, so a phase reading a halo element
/// the plan failed to refresh makes a stale read. Remotely served reads are
/// always fresh (a DSM get observes the owner's memory).
[[nodiscard]] DataFlowReport validateDataFlow(const ir::Program& program,
                                              const ir::Bindings& params,
                                              const dsm::ExecutionPlan& plan,
                                              std::int64_t processors);

/// Whether `array` is privatizable in phase `phase`, exactly under the given
/// bindings. The paper takes privatizable-array marking from the Polaris
/// analyses, restricted so that the array's value is dead after the phase:
///   (a) within every parallel iteration of the phase, each read of the
///       array happens at an address that iteration has already written (no
///       exposed reads), and
///   (b) the value is not live after the phase: walking forward (wrapping
///       for cyclic programs), the next phase that really uses the array
///       writes it without reading it (or privatizes it itself).
/// Without a completed proof — an exhausted budget, or the privatize.infer
/// fault — the answer is false, recorded as a "privatization" degradation.
[[nodiscard]] bool inferPrivatizable(const ir::Program& program, std::size_t phase,
                                     const std::string& array, const ir::Bindings& params);

/// The arrays declared privatizable in `phase` that inferPrivatizable
/// rejects (empty = every marking is justified).
[[nodiscard]] std::vector<std::string> unjustifiedPrivatizations(const ir::Program& program,
                                                                 std::size_t phase,
                                                                 const ir::Bindings& params);

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
