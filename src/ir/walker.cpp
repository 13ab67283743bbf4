#include "ir/walker.hpp"

#include <algorithm>
#include <set>

#include "support/diagnostics.hpp"

namespace ad::ir {

std::int64_t evalInt(const sym::Expr& e, const Bindings& bindings, const char* what) {
  const Rational r = e.evaluate(bindings);
  if (!r.isInteger()) throw AnalysisError(std::string(what) + " is not integral");
  return r.asInteger();
}

namespace {

void walk(const Program& program, const Phase& phase, Bindings& b, std::size_t depth,
          const std::function<void(const Bindings&)>& fn) {
  if (depth == phase.loops().size()) {
    fn(b);
    return;
  }
  const Loop& l = phase.loops()[depth];
  const std::int64_t lo = evalInt(l.lower, b, "loop lower bound");
  const std::int64_t hi = evalInt(l.upper, b, "loop upper bound");
  for (std::int64_t v = lo; v <= hi; ++v) {
    b[l.index] = v;
    walk(program, phase, b, depth + 1, fn);
  }
  b.erase(l.index);
}

/// walk() with a value filter applied at the parallel loop's depth `parPos`.
void walkWhere(const Phase& phase, Bindings& b, std::size_t depth, std::size_t parPos,
               const std::function<bool(std::int64_t)>& keep,
               const std::function<void(const Bindings&)>& fn) {
  if (depth == phase.loops().size()) {
    fn(b);
    return;
  }
  const Loop& l = phase.loops()[depth];
  const std::int64_t lo = evalInt(l.lower, b, "loop lower bound");
  const std::int64_t hi = evalInt(l.upper, b, "loop upper bound");
  for (std::int64_t v = lo; v <= hi; ++v) {
    if (depth == parPos && !keep(v)) continue;
    b[l.index] = v;
    walkWhere(phase, b, depth + 1, parPos, keep, fn);
  }
  b.erase(l.index);
}

}  // namespace

void forEachIteration(const Program& program, const Phase& phase, const Bindings& params,
                      const std::function<void(const Bindings&)>& fn) {
  Bindings b = params;
  walk(program, phase, b, 0, fn);
}

void forEachAccess(const Program& program, const Phase& phase, const Bindings& params,
                   const std::function<void(const ConcreteAccess&, const Bindings&)>& fn) {
  const bool hasPar = phase.hasParallelLoop();
  const sym::SymbolId parIdx = hasPar ? phase.parallelLoop().index : 0;
  forEachIteration(program, phase, params, [&](const Bindings& b) {
    for (const auto& r : phase.refs()) {
      ConcreteAccess acc;
      acc.ref = &r;
      acc.address = evalInt(r.subscript, b, "subscript");
      acc.parallelIter = hasPar ? b.at(parIdx) : 0;
      fn(acc, b);
    }
  });
}

void forEachAccessWhere(const Program& program, const Phase& phase, const Bindings& params,
                        const std::function<bool(std::int64_t)>& keep,
                        const std::function<void(const ConcreteAccess&, const Bindings&)>& fn) {
  (void)program;
  const bool hasPar = phase.hasParallelLoop();
  if (!hasPar) {
    if (!keep(0)) return;
  }
  const std::size_t parPos = hasPar ? phase.parallelLoopPos() : phase.loops().size();
  const sym::SymbolId parIdx = hasPar ? phase.parallelLoop().index : 0;
  Bindings b = params;
  walkWhere(phase, b, 0, parPos, keep, [&](const Bindings& bb) {
    for (const auto& r : phase.refs()) {
      ConcreteAccess acc;
      acc.ref = &r;
      acc.address = evalInt(r.subscript, bb, "subscript");
      acc.parallelIter = hasPar ? bb.at(parIdx) : 0;
      fn(acc, bb);
    }
  });
}

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
