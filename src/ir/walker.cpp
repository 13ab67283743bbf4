#include "ir/walker.hpp"

#include <algorithm>
#include <optional>
#include <set>

#include "support/diagnostics.hpp"

namespace ad::ir {

namespace {

/// `e`'s value, or nullopt when it is not an integer.
std::optional<std::int64_t> integralValue(const sym::Expr& e, const Bindings& bindings) {
  const Rational r = e.evaluate(bindings);
  if (!r.isInteger()) return std::nullopt;
  return r.asInteger();
}

}  // namespace

std::int64_t evalInt(const sym::Expr& e, const Bindings& bindings, const char* what) {
  if (const auto v = integralValue(e, bindings)) return *v;
  throw AnalysisError(std::string(what) + " is not integral");
}

void forEachIteration(const Program& program, const Phase& phase, const Bindings& params,
                      const std::function<void(const Bindings&)>& fn) {
  (void)program;
  Bindings b = params;
  detail::walkLoops(phase, b, 0, phase.loops().size(), fn);
}

namespace detail {

AccessStepper::AccessStepper(const Phase& phase)
    : refs_(&phase.refs()),
      stride_(phase.refs().size()),
      slots_(phase.refs().size()) {
  const sym::SymbolId inner = phase.loops().back().index;
  for (std::size_t r = 0; r < refs_->size(); ++r) {
    if (auto dec = (*refs_)[r].subscript.linearDecompose(inner)) stride_[r] = dec->first;
  }
}

void AccessStepper::beginSteps(const Bindings& b) {
  for (std::size_t r = 0; r < refs_->size(); ++r) {
    const auto a = stride_[r] ? integralValue(*stride_[r], b) : std::nullopt;
    slots_[r].stepped = a.has_value();
    slots_[r].step = a.value_or(0);
  }
}

void AccessStepper::checkSteps(const Bindings& b) const {
  for (std::size_t r = 0; r < refs_->size(); ++r) {
    if (slots_[r].stepped && slots_[r].addr != evalInt((*refs_)[r].subscript, b, "subscript")) {
      throw AnalysisError("stepped subscript of " + (*refs_)[r].array +
                          " diverged from its evaluation");
    }
  }
}

}  // namespace detail

std::vector<std::int64_t> touchedAddresses(const Program& program, const Phase& phase,
                                           const std::string& array, const Bindings& params) {
  std::set<std::int64_t> s;
  forEachAccess(program, phase, params, [&](const ConcreteAccess& a, const Bindings&) {
    if (a.ref->array == array) s.insert(a.address);
  });
  return {s.begin(), s.end()};
}

std::vector<std::int64_t> touchedAddressesInIteration(const Program& program, const Phase& phase,
                                                      const std::string& array,
                                                      const Bindings& params, std::int64_t iter) {
  AD_REQUIRE(phase.hasParallelLoop(), "phase has no parallel loop");
  std::set<std::int64_t> s;
  forEachAccess(program, phase, params, [&](const ConcreteAccess& a, const Bindings&) {
    if (a.ref->array == array && a.parallelIter == iter) s.insert(a.address);
  });
  return {s.begin(), s.end()};
}

std::int64_t parallelTripCount(const Phase& phase, const Bindings& params) {
  if (!phase.hasParallelLoop()) return 1;
  const Loop& l = phase.parallelLoop();
  // The parallel loop is outermost-of-its-kind; its bounds may only reference
  // parameters and outer sequential indices. We require parameter-only bounds
  // here (true for every code in the suite).
  const std::int64_t lo = l.lower.evaluate(params).asInteger();
  const std::int64_t hi = l.upper.evaluate(params).asInteger();
  return std::max<std::int64_t>(0, hi - lo + 1);
}

}  // namespace ad::ir
