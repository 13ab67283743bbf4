#include "ir/walker.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <utility>
#include <vector>

#include "support/checked_int.hpp"
#include "support/diagnostics.hpp"

namespace ad::ir {

namespace {

using Affine = LoweredPhase::Affine;

/// `e`'s value, or nullopt when it is not an integer.
std::optional<std::int64_t> integralValue(const sym::Expr& e, const Bindings& bindings) {
  const Rational r = e.evaluate(bindings);
  if (!r.isInteger()) return std::nullopt;
  return r.asInteger();
}

/// `e` over the loop indices [0, depth), parameters substituted. It does not
/// lower when it is not linear in one of them (pow2 exponents included),
/// when a coefficient is not an integer, or when it has a deeper index.
Affine lower(const sym::Expr& e, const std::vector<Loop>& loops, std::size_t depth,
             const Bindings& params) {
  Affine a(depth + 1);
  sym::Expr rest = e;
  try {
    for (std::size_t d = 0; d < depth; ++d) {
      auto dec = rest.linearDecompose(loops[d].index);
      const auto c = dec ? integralValue(dec->first, params) : std::nullopt;
      if (!c) return {};
      a[d + 1] = *c;
      rest = std::move(dec->second);
    }
    const auto c = integralValue(rest, params);
    if (!c) return {};
    a[0] = *c;
  } catch (const std::exception&) {
    return {};  // an unbound index or an overflow: evaluated where it occurs
  }
  return a;
}

/// `a` at the loop indices `idx`; nullopt when `a` did not lower or the
/// arithmetic overflows.
std::optional<std::int64_t> valueAt(const Affine& a, const std::vector<std::int64_t>& idx) {
  if (a.empty()) return std::nullopt;
  std::optional<std::int64_t> v = a[0];
  for (std::size_t d = 1; v && d < a.size(); ++d) {
    const auto term = tryMul(a[d], idx[d - 1]);
    v = term ? tryAdd(*v, *term) : std::nullopt;
  }
  return v;
}

/// `a` at `at`, else `e` evaluated there.
std::int64_t valueAt(const Affine& a, const sym::Expr& e, const NestPoint& at, const char* what) {
  if (const auto v = valueAt(a, at.idx)) return *v;
  return evalInt(e, at.bindings, what);
}

/// Iterations of [lo, hi]: 0 when empty, checked for overflow.
std::int64_t tripCount(std::int64_t lo, std::int64_t hi) {
  return lo > hi ? 0 : checkedAdd(checkedSub(hi, lo), 1);
}

/// One forEachRun call: the state of the walk over a lowered phase.
class RunWalker {
 public:
  RunWalker(const LoweredPhase& phase, const RunFn& fn)
      : phase_(phase), loops_(phase.phase().loops()), fn_(fn), at_(phase.origin()) {
    for (const ArrayRef& r : phase.phase().refs()) runs_.push_back(RefRun{&r, 0, 0});
    if (phase.phase().hasParallelLoop()) parPos_ = phase.phase().parallelLoopPos();
  }

  void walk(std::size_t depth = 0) {
    if (loops_.empty()) return run(0, 1, nullptr);
    const auto [lo, trips] = phase_.range(depth, at_);
    if (trips == 0) return;
    std::int64_t& index = at_.bindings[loops_[depth].index];
    if (depth + 1 == loops_.size()) return run(lo, trips, &index);
    for (std::int64_t t = 0; t < trips; ++t) {
      index = at_.idx[depth] = lo + t;
      walk(depth + 1);
    }
  }

 private:
  /// Delivers the innermost run of `count` iterations from `lo`; `index` is
  /// its binding (null without loops). A run whose refs do not all step goes
  /// one iteration at a time; where a ref throws, the refs before it are
  /// delivered first.
  void run(std::int64_t lo, std::int64_t count, std::int64_t* index) {
    if (index != nullptr) *index = at_.idx.back() = lo;
    AccessRun r;
    r.first = lo;
    r.count = count;
    r.parallelIsInner = parPos_ && *parPos_ + 1 == loops_.size();
    r.parallelIter = parPos_ ? at_.idx[*parPos_] : 0;
    r.refs = runs_;
    if (stepped(count, index)) return fn_(r, at_.bindings);
    r.count = 1;
    for (std::int64_t t = 0; t < count; ++t) {
      if (index != nullptr) *index = at_.idx.back() = r.first = lo + t;
      if (r.parallelIsInner) r.parallelIter = lo + t;
      for (std::size_t k = 0; k < runs_.size(); ++k) {
        try {
          runs_[k].start = phase_.address(k, at_);
        } catch (...) {
          r.refs = r.refs.first(k);
          if (k > 0) fn_(r, at_.bindings);
          throw;
        }
      }
      fn_(r, at_.bindings);
    }
  }

  /// Fixes each ref's start and step for a run of `count` iterations and
  /// compares each last address with its evaluation. False when a ref has
  /// no integral stride, fails at the first iteration, or its last address
  /// overflows: it is then evaluated at every access.
  bool stepped(std::int64_t count, std::int64_t* index) {
    try {
      for (std::size_t k = 0; k < runs_.size(); ++k) {
        runs_[k].start = phase_.address(k, at_);
        const auto step = loops_.empty() ? std::optional<std::int64_t>(0)
                                         : phase_.stride(k, loops_.size() - 1, at_);
        if (!step) return false;
        runs_[k].step = *step;
      }
    } catch (const std::exception&) {
      return false;  // thrown again at its access, one iteration at a time
    }
    if (count == 1) return true;
    const std::int64_t lo = *index;
    *index = lo + (count - 1);
    bool fits = true;
    for (const RefRun& s : runs_) {
      const auto span = tryMul(s.step, count - 1);
      const auto last = span ? tryAdd(s.start, *span) : std::nullopt;
      fits = fits && last.has_value();
      if (last && *last != evalInt(s.ref->subscript, at_.bindings, "subscript")) {
        throw AnalysisError("stepped subscript of " + s.ref->array +
                            " diverged from its evaluation");
      }
    }
    *index = lo;
    return fits;
  }

  const LoweredPhase& phase_;
  const std::vector<Loop>& loops_;
  const RunFn& fn_;
  NestPoint at_;
  std::optional<std::size_t> parPos_;
  std::vector<RefRun> runs_;  ///< the current run's (or iteration's) addresses
};

}  // namespace

LoweredPhase::LoweredPhase(const Phase& phase, const Bindings& params)
    : phase_(phase), params_(params) {
  const std::vector<Loop>& loops = phase.loops();
  const std::size_t depth = loops.size();
  // Loop d shifts uniformly only when no deeper bound mentions its index.
  std::vector<char> uniform(depth, 1);
  for (std::size_t d = 0; d < depth; ++d) {
    bounds_.emplace_back(lower(loops[d].lower, loops, d, params),
                         lower(loops[d].upper, loops, d, params));
    for (std::size_t e = 0; e < d; ++e) {
      uniform[e] = uniform[e] && !loops[d].lower.contains(loops[e].index) &&
                   !loops[d].upper.contains(loops[e].index);
    }
  }
  for (const ArrayRef& r : phase.refs()) {
    const Affine& a = subscripts_.emplace_back(lower(r.subscript, loops, depth, params));
    for (std::size_t d = 0; d < depth; ++d) {
      Stride& s = strides_.emplace_back();
      if (!uniform[d]) continue;
      if (!a.empty()) {
        s.affine = {a[d + 1]};
        continue;
      }
      auto dec = r.subscript.linearDecompose(loops[d].index);
      for (std::size_t e = d + 1; dec && e < depth; ++e) {
        if (dec->first.contains(loops[e].index)) dec.reset();
      }
      if (!dec) continue;
      s.affine = lower(dec->first, loops, d, params);
      s.expr = std::move(dec->first);
    }
  }
}

NestPoint LoweredPhase::origin() const {
  return {std::vector<std::int64_t>(phase_.loops().size()), params_};
}

void LoweredPhase::bind(NestPoint& at, std::size_t d, std::int64_t v) const {
  at.idx[d] = at.bindings[phase_.loops()[d].index] = v;
}

std::pair<std::int64_t, std::int64_t> LoweredPhase::range(std::size_t d,
                                                          const NestPoint& at) const {
  const Loop& l = phase_.loops()[d];
  const std::int64_t lo = valueAt(bounds_[d].first, l.lower, at, "loop lower bound");
  return {lo, tripCount(lo, valueAt(bounds_[d].second, l.upper, at, "loop upper bound"))};
}

std::int64_t LoweredPhase::address(std::size_t k, const NestPoint& at) const {
  return valueAt(subscripts_[k], phase_.refs()[k].subscript, at, "subscript");
}

std::optional<std::int64_t> LoweredPhase::stride(std::size_t k, std::size_t d,
                                                 const NestPoint& at) const {
  const Stride& s = strides_[k * phase_.loops().size() + d];
  if (const auto v = valueAt(s.affine, at.idx)) return v;
  return s.expr ? integralValue(*s.expr, at.bindings) : std::nullopt;
}

std::int64_t evalInt(const sym::Expr& e, const Bindings& bindings, const char* what) {
  if (const auto v = integralValue(e, bindings)) return *v;
  throw AnalysisError(std::string(what) + " is not integral");
}

void forEachRun(const LoweredPhase& phase, const RunFn& fn) { RunWalker(phase, fn).walk(); }

std::int64_t parallelTripCount(const Phase& phase, const Bindings& params) {
  if (!phase.hasParallelLoop()) return 1;
  const Loop& l = phase.parallelLoop();
  // The parallel loop is outermost-of-its-kind; its bounds may only reference
  // parameters and outer sequential indices. We require parameter-only bounds
  // here (true for every code in the suite).
  return tripCount(l.lower.evaluate(params).asInteger(), l.upper.evaluate(params).asInteger());
}

}  // namespace ad::ir
