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

/// `e`'s value, or nullopt when it is not an integer.
std::optional<std::int64_t> integralValue(const sym::Expr& e, const Bindings& bindings) {
  const Rational r = e.evaluate(bindings);
  if (!r.isInteger()) return std::nullopt;
  return r.asInteger();
}

/// {c, a_0, ..., a_(d-1)}: c + sum_k a_k * index_k over the outermost d
/// loop indices. Empty when the expression does not lower.
using Affine = std::vector<std::int64_t>;

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

/// One forEachRun call: the phase's lowered bounds and subscripts, and the
/// state of the walk.
class RunWalker {
 public:
  RunWalker(const Phase& phase, const Bindings& params, const RunFn& fn)
      : loops_(phase.loops()), fn_(fn), b_(params), idx_(loops_.size()) {
    for (std::size_t d = 0; d < loops_.size(); ++d) {
      bounds_.emplace_back(lower(loops_[d].lower, loops_, d, params),
                           lower(loops_[d].upper, loops_, d, params));
    }
    for (const ArrayRef& r : phase.refs()) {
      subscript_.push_back(lower(r.subscript, loops_, loops_.size(), params));
      auto dec = loops_.empty() ? std::nullopt : r.subscript.linearDecompose(loops_.back().index);
      stride_.push_back(dec ? std::optional(std::move(dec->first)) : std::nullopt);
      runs_.push_back(RefRun{&r, 0, 0});
    }
    if (phase.hasParallelLoop()) parPos_ = phase.parallelLoopPos();
  }

  void walk(std::size_t depth = 0) {
    if (loops_.empty()) return run(0, 0, nullptr);
    const Loop& l = loops_[depth];
    const std::int64_t lo = value(bounds_[depth].first, l.lower, "loop lower bound");
    const std::int64_t hi = value(bounds_[depth].second, l.upper, "loop upper bound");
    if (lo > hi) return;
    std::int64_t& index = b_[l.index];
    if (depth + 1 == loops_.size()) {
      run(lo, hi, &index);
    } else {
      for (std::int64_t v = lo;; ++v) {
        index = idx_[depth] = v;
        walk(depth + 1);
        if (v == hi) break;
      }
    }
    b_.erase(l.index);
  }

 private:
  std::int64_t value(const Affine& a, const sym::Expr& e, const char* what) const {
    if (const auto v = valueAt(a, idx_)) return *v;
    return evalInt(e, b_, what);
  }

  /// Delivers the innermost run [lo, hi]; `index` is its binding (null
  /// without loops). A run whose refs do not all step goes one iteration at
  /// a time; where a ref throws, the refs before it are delivered first.
  void run(std::int64_t lo, std::int64_t hi, std::int64_t* index) {
    if (index != nullptr) *index = idx_.back() = lo;
    AccessRun r;
    r.first = lo;
    r.count = checkedAdd(checkedSub(hi, lo), 1);
    r.parallelIsInner = parPos_ && *parPos_ + 1 == loops_.size();
    r.parallelIter = parPos_ ? idx_[*parPos_] : 0;
    r.refs = runs_;
    if (stepped(r.count, hi, index)) return fn_(r, b_);
    r.count = 1;
    for (std::int64_t v = lo;; ++v) {
      if (index != nullptr) *index = idx_.back() = r.first = v;
      if (r.parallelIsInner) r.parallelIter = v;
      for (std::size_t k = 0; k < runs_.size(); ++k) {
        try {
          runs_[k].start = value(subscript_[k], runs_[k].ref->subscript, "subscript");
        } catch (...) {
          r.refs = r.refs.first(k);
          if (k > 0) fn_(r, b_);
          throw;
        }
      }
      fn_(r, b_);
      if (v == hi) break;
    }
  }

  /// Fixes each ref's start and step for a run of `count` iterations ending
  /// at `hi` and compares each last address with its evaluation. False when
  /// a ref has no integral stride, fails at the first iteration, or its
  /// last address overflows: it is then evaluated at every access.
  bool stepped(std::int64_t count, std::int64_t hi, std::int64_t* index) {
    try {
      for (std::size_t k = 0; k < runs_.size(); ++k) {
        runs_[k].start = value(subscript_[k], runs_[k].ref->subscript, "subscript");
        const auto step = loops_.empty()           ? std::optional<std::int64_t>(0)
                          : !subscript_[k].empty() ? std::optional(subscript_[k].back())
                          : stride_[k]             ? integralValue(*stride_[k], b_)
                                                   : std::nullopt;
        if (!step) return false;
        runs_[k].step = *step;
      }
    } catch (const std::exception&) {
      return false;  // thrown again at its access, one iteration at a time
    }
    if (count == 1) return true;
    const std::int64_t lo = *index;
    *index = hi;
    bool fits = true;
    for (const RefRun& s : runs_) {
      const auto span = tryMul(s.step, count - 1);
      const auto last = span ? tryAdd(s.start, *span) : std::nullopt;
      fits = fits && last.has_value();
      if (last && *last != evalInt(s.ref->subscript, b_, "subscript")) {
        throw AnalysisError("stepped subscript of " + s.ref->array +
                            " diverged from its evaluation");
      }
    }
    *index = lo;
    return fits;
  }

  const std::vector<Loop>& loops_;
  const RunFn& fn_;
  Bindings b_;
  std::vector<std::int64_t> idx_;  ///< loop index values, outermost first
  std::optional<std::size_t> parPos_;
  std::vector<std::pair<Affine, Affine>> bounds_;  ///< lower and upper, per loop
  std::vector<Affine> subscript_;
  /// Each subscript's coefficient of the innermost index, when linear in it.
  std::vector<std::optional<sym::Expr>> stride_;
  std::vector<RefRun> runs_;  ///< the current run's (or iteration's) addresses
};

}  // namespace

std::int64_t evalInt(const sym::Expr& e, const Bindings& bindings, const char* what) {
  if (const auto v = integralValue(e, bindings)) return *v;
  throw AnalysisError(std::string(what) + " is not integral");
}

void forEachRun(const Program& program, const Phase& phase, const Bindings& params,
                const RunFn& fn) {
  (void)program;
  RunWalker(phase, params, fn).walk();
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
