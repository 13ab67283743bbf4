#include "symbolic/ranges.hpp"

#include <algorithm>
#include <set>
#include <type_traits>
#include <vector>

#include "support/budget.hpp"
#include "support/diagnostics.hpp"
#include "support/fault.hpp"
#include "symbolic/intern.hpp"

namespace ad::sym {

namespace {

/// Set when the in-flight public query was interrupted — by budget
/// exhaustion, deadline, cancellation, or the prover.timeout fault point.
/// Interrupted answers are Unknown (sound) but must not be published to the
/// shared proof memo, where they would make *later*, unbudgeted runs
/// conservative too.
thread_local bool tlProverInterrupted = false;

/// Charges the current budget for one prover step. False means "stop and
/// answer Unknown".
bool proverAdmit() {
  // The timeout fault models budget exhaustion, so it is only armed while a
  // budget is installed. Budget-exempt regions (descriptor construction,
  // which has no conservative fallback) and unbudgeted runs never time out —
  // there, only the real budgetStep() path below can interrupt, and it is a
  // no-op too.
  if (support::Budget::current() != nullptr && AD_FAULT_POINT("prover.timeout")) {
    tlProverInterrupted = true;
    if (auto* b = support::Budget::current()) b->exhaust(support::BudgetStop::kFault);
    return false;
  }
  if (!support::budgetStep()) {
    tlProverInterrupted = true;
    return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Assumptions
// ---------------------------------------------------------------------------

std::optional<Expr> Assumptions::lower(SymbolId id) const {
  if (auto it = ranges_.find(id); it != ranges_.end() && it->second.lo) return it->second.lo;
  switch (table_->kind(id)) {
    case SymbolKind::kIndex:
      return Expr::constant(0);  // loops are normalized
    case SymbolKind::kParameter:
    case SymbolKind::kLog2Parameter:
      return Expr::constant(1);  // problem sizes are positive; pow2 params >= 2
  }
  return std::nullopt;
}

std::optional<Expr> Assumptions::upper(SymbolId id) const {
  if (auto it = ranges_.find(id); it != ranges_.end() && it->second.hi) return it->second.hi;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// RangeAnalyzer — small helpers
// ---------------------------------------------------------------------------

namespace {

/// Divide out factors common to every monomial whose positivity is already
/// known: the pow2 part of the first monomial (pow2 is always > 0, so the
/// sign is preserved unconditionally) and common nonnegative symbols.
/// Preserves: result >= 0 implies input >= 0 (and > 0 implies > 0 when the
/// stripped symbols are strictly positive — the caller checks that).
struct StrippedContent {
  Expr expr;
  std::vector<SymbolId> strippedSymbols;  // symbols divided out (power >= 1)
};

StrippedContent stripContent(const Expr& e) {
  StrippedContent out{e, {}};
  if (e.terms().empty()) return out;
  // pow2 content: multiply by pow2(-e0) of the first monomial that has one.
  for (const auto& m : e.terms()) {
    if (m.hasPow2()) {
      out.expr = out.expr * Expr::pow2(-m.pow2Exponent());
      break;
    }
  }
  // symbol content: min power over all monomials.
  const auto& terms = out.expr.terms();
  if (terms.empty()) return out;
  std::vector<SymbolFactor> content(terms[0].symbols().begin(), terms[0].symbols().end());
  for (const auto& m : terms) {
    std::vector<SymbolFactor> next;
    for (const auto& c : content) {
      for (const auto& f : m.symbols()) {
        if (f.id == c.id) {
          next.push_back(SymbolFactor{c.id, std::min(c.power, f.power)});
          break;
        }
      }
    }
    content = std::move(next);
    if (content.empty()) break;
  }
  if (!content.empty()) {
    Expr divisor = Expr::constant(1);
    for (const auto& c : content) {
      out.strippedSymbols.push_back(c.id);
      for (int i = 0; i < c.power; ++i) divisor *= Expr::symbol(c.id);
    }
    if (auto q = Expr::divideExact(out.expr, divisor)) out.expr = *q;
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// RangeAnalyzer — construction & memo plumbing
// ---------------------------------------------------------------------------

RangeAnalyzer::RangeAnalyzer(const Assumptions& assumptions) : asm_(&assumptions) {
  if (ProofMemo::enabled()) memo_ = ProofMemo::global().context(assumptions);
}

int RangeAnalyzer::maxDepth() {
  auto* b = support::Budget::current();
  return b != nullptr ? b->proverDepth(kMaxDepth) : kMaxDepth;
}

bool RangeAnalyzer::beginQuery() {
  const bool wasInterrupted = tlProverInterrupted;
  tlProverInterrupted = false;
  return wasInterrupted;
}

bool RangeAnalyzer::queryInterrupted(bool previouslyInterrupted) {
  const bool interrupted = tlProverInterrupted;
  tlProverInterrupted = interrupted || previouslyInterrupted;
  return interrupted;
}

std::size_t RangeAnalyzer::ScratchHash::operator()(const Expr& e) const {
  return static_cast<std::size_t>(internHash(e));
}

void RangeAnalyzer::resetScratch() const {
  nnCache_.clear();
  posCache_.clear();
  boundCache_.clear();
}

// ---------------------------------------------------------------------------
// RangeAnalyzer — disproof by witness evaluation
// ---------------------------------------------------------------------------

namespace {

/// Builds one integer point satisfying every assumption a query can read, by
/// exact rational evaluation of the assumed bounds. Construction is
/// heuristic, but the finished assignment is re-verified against every bound,
/// fact, and pow2-parameter link before any value is reported — so a sloppy
/// heuristic can only fail to produce a witness, never produce a bogus one.
class WitnessEvaluator {
 public:
  explicit WitnessEvaluator(const Assumptions& a) : a_(a) {}

  /// The value of `e` at a verified feasible integer point, or nullopt when
  /// no such point could be constructed. The point covers the transitive
  /// closure of free(e) and the facts' free symbols through the assumed
  /// bounds — exactly the symbols the proof search can read.
  [[nodiscard]] std::optional<Rational> valueAtFeasiblePoint(const Expr& e) {
    std::vector<SymbolId> work = e.freeSymbols();
    for (const Expr& f : a_.facts()) {
      const auto fs = f.freeSymbols();
      work.insert(work.end(), fs.begin(), fs.end());
    }
    std::set<SymbolId> closure;
    while (!work.empty()) {
      const SymbolId id = work.back();
      work.pop_back();
      if (!closure.insert(id).second) continue;
      for (const auto& b : {a_.lower(id), a_.upper(id)}) {
        if (!b) continue;
        for (SymbolId s : b->freeSymbols())
          if (closure.count(s) == 0) work.push_back(s);
      }
    }
    assignAll(closure);
    repairFacts();
    if (!feasible(closure)) return std::nullopt;
    return eval(e);
  }

 private:
  /// Values stay far below the checked-int overflow edge: every operand is
  /// capped, and the deepest product chain (power 16, pow2 shift 20) keeps
  /// intermediates under 2^61.
  static constexpr std::int64_t kMagnitudeCap = std::int64_t(1) << 20;

  [[nodiscard]] static bool inRange(const Rational& r) {
    return r.num() < kMagnitudeCap && r.num() > -kMagnitudeCap && r.den() < kMagnitudeCap;
  }

  void assignAll(const std::set<SymbolId>& closure) {
    // Bounds may reference other symbols, so sweep to a fixpoint; when a
    // sweep stalls (cyclic or unbounded symbols), force one small default and
    // resume. Termination: every round shrinks `pending` by at least one.
    std::vector<SymbolId> pending(closure.begin(), closure.end());
    while (!pending.empty()) {
      bool progress = false;
      std::vector<SymbolId> next;
      for (SymbolId id : pending) {
        if (assignFromBounds(id)) {
          progress = true;
        } else {
          next.push_back(id);
        }
      }
      if (!progress && !next.empty()) {
        values_[next.front()] = Rational(1);
        next.erase(next.begin());
      }
      pending = std::move(next);
    }
  }

  [[nodiscard]] bool assignFromBounds(SymbolId id) {
    // Sit on the lower bound when it evaluates: domains are tightest there
    // and small values keep the arithmetic far from the overflow caps.
    // Rounding keeps the point integral; feasibility re-checks the bound.
    if (const auto lo = a_.lower(id)) {
      if (const auto v = eval(*lo)) {
        values_[id] = Rational(v->ceil());
        return true;
      }
    }
    if (const auto hi = a_.upper(id)) {
      if (const auto v = eval(*hi)) {
        values_[id] = Rational(v->floor());
        return true;
      }
    }
    return false;
  }

  void repairFacts() {
    // Sitting on declared lower bounds can violate facts whose content is
    // stronger (loop non-emptiness like N - 3 >= 0 while N's declared floor
    // is 1). For a violated fact that is linear in some assigned symbol with
    // positive coefficient, raise that symbol just enough; a few sweeps
    // settle chains. Repairs are heuristic — feasible() re-verifies every
    // bound and fact afterwards, so an over- or mis-repair only costs the
    // witness, never correctness.
    for (int sweep = 0; sweep < 8; ++sweep) {
      bool repaired = false;
      for (const Expr& f : a_.facts()) {
        const auto v = eval(f);
        if (!v || v->sign() >= 0) continue;
        for (const Monomial& m : f.terms()) {
          if (m.hasPow2() || m.symbols().size() != 1) continue;
          const SymbolFactor& sf = m.symbols().front();
          if (sf.power != 1 || m.coeff().sign() <= 0) continue;
          const auto it = values_.find(sf.id);
          if (it == values_.end()) continue;
          // f + coeff * delta >= 0  =>  delta = ceil(-value(f) / coeff)
          it->second += Rational((-*v / m.coeff()).ceil());
          repaired = true;
          break;
        }
        if (repaired) break;  // re-evaluate all facts against the new point
      }
      if (!repaired) return;
    }
  }

  [[nodiscard]] std::optional<Rational> eval(const Expr& e) const {
    Rational sum(0);
    for (const Monomial& m : e.terms()) {
      Rational v = m.coeff();
      for (const SymbolFactor& f : m.symbols()) {
        const auto it = values_.find(f.id);
        if (it == values_.end() || f.power > 16) return std::nullopt;
        for (int i = 0; i < f.power; ++i) {
          if (!inRange(v) || !inRange(it->second)) return std::nullopt;
          v *= it->second;
        }
      }
      if (m.hasPow2()) {
        const auto ev = eval(m.pow2Exponent());
        if (!ev || !ev->isInteger()) return std::nullopt;
        const std::int64_t k = ev->asInteger();
        if (k < -20 || k > 20) return std::nullopt;
        if (!inRange(v)) return std::nullopt;
        v *= k >= 0 ? Rational(std::int64_t(1) << k) : Rational(1, std::int64_t(1) << -k);
      }
      if (!inRange(sum) || !inRange(v)) return std::nullopt;
      sum += v;
    }
    return sum;
  }

  [[nodiscard]] bool feasible(const std::set<SymbolId>& closure) const {
    for (SymbolId id : closure) {
      const auto it = values_.find(id);
      if (it == values_.end() || !it->second.isInteger()) return false;
      if (const auto lo = a_.lower(id)) {
        const auto v = eval(*lo);
        if (!v || !(*v <= it->second)) return false;
      }
      if (const auto hi = a_.upper(id)) {
        const auto v = eval(*hi);
        if (!v || !(it->second <= *v)) return false;
      }
      // No pow2-parameter link check: the table resolves the parameter name
      // to its log symbol (a pow2 parameter is never a separate symbol — it
      // only ever appears as pow2(log)), so a point over the log symbols is
      // automatically consistent.
    }
    for (const Expr& f : a_.facts()) {
      const auto v = eval(f);
      if (!v || v->sign() < 0) return false;
    }
    return true;
  }

  const Assumptions& a_;
  std::map<SymbolId, Rational> values_;
};

}  // namespace

bool RangeAnalyzer::disproveByWitness(const Expr& e, bool strictWitness) const {
  // The proof rules are sound over every integer point satisfying the
  // assumptions, so one verified feasible point with e < 0 (for an e >= 0
  // claim; e <= 0 for an e > 0 claim) settles the query as false — exactly
  // the answer the exhaustive search would reach, without paying for the
  // search. Failed proofs are where the search is at its most expensive
  // (nothing prunes it), which makes this the cheap path for precisely the
  // costly cases.
  try {
    const auto v = WitnessEvaluator(*asm_).valueAtFeasiblePoint(e);
    if (!v) return false;
    return strictWitness ? v->sign() < 0 : v->sign() <= 0;
  } catch (...) {
    return false;  // checked-int overflow in bound evaluation: claim nothing
  }
}

// ---------------------------------------------------------------------------
// RangeAnalyzer — sign proving
// ---------------------------------------------------------------------------

bool RangeAnalyzer::symbolNonNegative(SymbolId id, int depth) const {
  if (depth <= 0) return false;
  auto lo = asm_->lower(id);
  return lo && proveNNImpl(*lo, depth - 1);
}

bool RangeAnalyzer::symbolPositive(SymbolId id, int depth) const {
  if (depth <= 0) return false;
  auto lo = asm_->lower(id);
  return lo && provePosImpl(*lo, depth - 1);
}

bool RangeAnalyzer::monomialNonNegative(const Monomial& m, int depth) const {
  if (m.coeff().sign() == 0) return true;
  if (m.coeff().sign() < 0) return false;
  return std::all_of(m.symbols().begin(), m.symbols().end(), [&](const SymbolFactor& f) {
    // Even powers are nonnegative regardless of the base sign.
    return f.power % 2 == 0 || symbolNonNegative(f.id, depth);
  });
}

bool RangeAnalyzer::monomialPositive(const Monomial& m, int depth) const {
  if (m.coeff().sign() <= 0) return false;
  return std::all_of(m.symbols().begin(), m.symbols().end(),
                     [&](const SymbolFactor& f) { return symbolPositive(f.id, depth); });
}

bool RangeAnalyzer::proveNNImpl(const Expr& e, int depth) const {
  if (auto c = e.asConstant()) return c->sign() >= 0;
  if (depth <= 0 || !proverAdmit()) return false;
  if (auto it = nnCache_.find(e); it != nnCache_.end()) return it->second;
  nnCache_.emplace(e, false);  // cut off re-entrant cycles pessimistically

  const auto conclude = [&](bool result) {
    nnCache_[e] = result;
    return result;
  };

  if (std::all_of(e.terms().begin(), e.terms().end(),
                  [&](const Monomial& m) { return monomialNonNegative(m, depth - 1); })) {
    return conclude(true);
  }
  // Strip common positive content, which turns e.g. 2PQ - 2P into Q - 1.
  const StrippedContent sc = stripContent(e);
  if (sc.expr != e) {
    const bool contentNN = std::all_of(
        sc.strippedSymbols.begin(), sc.strippedSymbols.end(),
        [&](SymbolId id) { return symbolNonNegative(id, depth - 1); });
    if (contentNN && proveNNImpl(sc.expr, depth - 1)) return conclude(true);
  }
  // Lower-bound substitution.
  if (auto lb = bound(e, Mode::kLower, /*indicesOnly=*/false, depth - 1); lb && *lb != e) {
    if (proveNNImpl(*lb, depth - 1)) return conclude(true);
  }
  // Fact combination: e >= f with a known fact f >= 0 proves e >= 0.
  // Restricted to the top of the proof search: facts discharge simple
  // loop-emptiness residues (N - 3 >= 0); letting them fire at every depth
  // multiplies the search fan-out beyond use.
  if (depth >= kMaxDepth - 8) {
    for (const Expr& f : asm_->facts()) {
      const Expr rest = e - f;
      if (rest == e) continue;
      if (proveNNImpl(rest, depth - 2)) return conclude(true);
    }
  }
  return conclude(false);
}

bool RangeAnalyzer::provePosImpl(const Expr& e, int depth) const {
  if (auto c = e.asConstant()) return c->sign() > 0;
  if (depth <= 0 || !proverAdmit()) return false;
  if (auto it = posCache_.find(e); it != posCache_.end()) return it->second;
  posCache_.emplace(e, false);  // cut off re-entrant cycles pessimistically

  const auto conclude = [&](bool result) {
    posCache_[e] = result;
    return result;
  };

  bool allNonNeg = true;
  bool somePos = false;
  for (const auto& m : e.terms()) {
    allNonNeg = allNonNeg && monomialNonNegative(m, depth - 1);
    somePos = somePos || monomialPositive(m, depth - 1);
  }
  if (allNonNeg && somePos) return conclude(true);
  const StrippedContent sc = stripContent(e);
  if (sc.expr != e) {
    const bool contentPos = std::all_of(
        sc.strippedSymbols.begin(), sc.strippedSymbols.end(),
        [&](SymbolId id) { return symbolPositive(id, depth - 1); });
    if (contentPos && provePosImpl(sc.expr, depth - 1)) return conclude(true);
  }
  if (auto lb = bound(e, Mode::kLower, /*indicesOnly=*/false, depth - 1); lb && *lb != e) {
    if (provePosImpl(*lb, depth - 1)) return conclude(true);
  }
  // Fact combination: e > 0 follows from e - f > 0 with fact f >= 0 (top of
  // the search only; see proveNNImpl).
  if (depth >= kMaxDepth - 8) {
    for (const Expr& f : asm_->facts()) {
      const Expr rest = e - f;
      if (rest == e) continue;
      if (provePosImpl(rest, depth - 2)) return conclude(true);
    }
  }
  return conclude(false);
}

// Each public query with the memo attached interns its expression once
// (copying it into the arena only the first time the process sees that
// normal form) and probes by handle: one cached-hash read plus pointer
// compares, no structural tree walks. The Expr overloads delegate; callers
// holding a handle skip the re-intern entirely.

template <auto kOp, typename Compute>
auto RangeAnalyzer::memoized(const InternedExpr& e, Compute&& compute,
                             const MemoSteps& steps) const {
  using T = std::invoke_result_t<Compute&>;
  if (!memo_) return compute();
  if (auto hit = memo_->lookup<T>(kOp, e)) {
    ProofMemo::global().recordHit();
    return *hit;
  }
  ProofMemo::global().recordMiss();
  if constexpr (std::is_same_v<T, bool>) {
    // Disproof by witness: settles refutable claims for the price of one
    // evaluation instead of an exhausted proof search.
    if (steps.strictWitness && disproveByWitness(*e, *steps.strictWitness)) {
      memo_->store(kOp, e, false);
      return false;
    }
  }
  if (steps.resetScratch) resetScratch();
  const bool outer = beginQuery();
  T result = compute();
  if (!queryInterrupted(outer)) memo_->store(kOp, e, result);
  return result;
}

bool RangeAnalyzer::proveNonNegative(const Expr& e) const {
  if (!memo_) return proveNNImpl(e, maxDepth());
  return proveNonNegative(ExprIntern::global().intern(e));
}

bool RangeAnalyzer::proveNonNegative(const InternedExpr& e) const {
  return memoized<ProofMemoContext::Op::kNonNegative>(
      e, [&] { return proveNNImpl(*e, maxDepth()); }, {.strictWitness = true});
}

bool RangeAnalyzer::proveNonPositive(const Expr& e) const { return proveNonNegative(-e); }

bool RangeAnalyzer::provePositive(const Expr& e) const {
  if (!memo_) return provePosImpl(e, maxDepth());
  return provePositive(ExprIntern::global().intern(e));
}

bool RangeAnalyzer::provePositive(const InternedExpr& e) const {
  return memoized<ProofMemoContext::Op::kPositive>(
      e, [&] { return provePosImpl(*e, maxDepth()); }, {.strictWitness = false});
}

std::optional<int> RangeAnalyzer::signImpl(const Expr& e, int depth) const {
  if (auto c = e.asConstant()) return c->sign();
  if (depth <= 0) return std::nullopt;
  if (provePosImpl(e, depth - 1)) return 1;
  if (provePosImpl(-e, depth - 1)) return -1;
  if (proveNNImpl(e, depth - 1) && proveNNImpl(-e, depth - 1)) return 0;
  return std::nullopt;
}

std::optional<int> RangeAnalyzer::sign(const Expr& e) const {
  if (!memo_) return signImpl(e, maxDepth());
  return sign(ExprIntern::global().intern(e));
}

std::optional<int> RangeAnalyzer::sign(const InternedExpr& e) const {
  return memoized<ProofMemoContext::Op::kSign>(e, [&] { return signImpl(*e, maxDepth()); }, {});
}

// ---------------------------------------------------------------------------
// RangeAnalyzer — bounds
// ---------------------------------------------------------------------------

std::optional<Expr> RangeAnalyzer::upperBoundExpr(const Expr& e) const {
  if (!memo_) return bound(e, Mode::kUpper, /*indicesOnly=*/true, maxDepth());
  return upperBoundExpr(ExprIntern::global().intern(e));
}

std::optional<Expr> RangeAnalyzer::upperBoundExpr(const InternedExpr& e) const {
  return memoized<ProofMemoContext::Op::kUpperBound>(
      e, [&] { return bound(*e, Mode::kUpper, /*indicesOnly=*/true, maxDepth()); }, {});
}

std::optional<Expr> RangeAnalyzer::lowerBoundExpr(const Expr& e) const {
  if (!memo_) return bound(e, Mode::kLower, /*indicesOnly=*/true, maxDepth());
  return lowerBoundExpr(ExprIntern::global().intern(e));
}

std::optional<Expr> RangeAnalyzer::lowerBoundExpr(const InternedExpr& e) const {
  return memoized<ProofMemoContext::Op::kLowerBound>(
      e, [&] { return bound(*e, Mode::kLower, /*indicesOnly=*/true, maxDepth()); }, {});
}

std::optional<Expr> RangeAnalyzer::boundEliminating(const Expr& e, SymbolId victim, Mode mode,
                                                    bool indicesOnly, int depth) const {
  const auto lo = asm_->lower(victim);
  const auto hi = asm_->upper(victim);

  Expr result;
  for (const auto& m : e.terms()) {
    Expr mono = Expr::monomial(m);
    if (!mono.contains(victim)) {
      result += mono;
      continue;
    }
    std::optional<Expr> atLo =
        lo ? std::optional<Expr>(mono.substitute(victim, *lo)) : std::nullopt;
    std::optional<Expr> atHi =
        hi ? std::optional<Expr>(mono.substitute(victim, *hi)) : std::nullopt;
    std::optional<Expr> pick;
    if (atLo && atHi) {
      // Monomials are monotone in each nonnegative symbol, so the extremum is
      // at an endpoint; weak comparisons suffice to decide which.
      bool increasing;
      if (proveNNImpl(*atHi - *atLo, depth - 1)) {
        increasing = true;
      } else if (proveNNImpl(*atLo - *atHi, depth - 1)) {
        increasing = false;
      } else {
        return std::nullopt;
      }
      pick = (mode == Mode::kUpper) == increasing ? atHi : atLo;
    } else {
      // Only one endpoint known: usable iff the monomial is monotone in the
      // matching direction. A monomial is increasing in a nonnegative symbol
      // appearing as a plain factor, but a 2^(-L)-style exponent flips the
      // direction; both occurrences together are indeterminate here.
      bool inSymbols = false;
      for (const auto& f : m.symbols()) inSymbols = inSymbols || f.id == victim;
      int expDir = 0;  // sign of d(exponent)/d(victim), 0 if absent
      if (m.hasPow2() && m.pow2Exponent().contains(victim)) {
        auto dec = m.pow2Exponent().linearDecompose(victim);
        if (!dec) return std::nullopt;
        auto s = signImpl(dec->first, depth - 1);
        if (!s) return std::nullopt;
        expDir = *s;
      }
      if (inSymbols && expDir < 0) return std::nullopt;  // mixed directions
      const int factorDir = expDir < 0 ? -1 : 1;
      const bool increasing = (m.coeff().sign() > 0) == (factorDir > 0);
      if (atLo && (mode == Mode::kLower) == increasing) {
        pick = atLo;
      } else if (atHi && (mode == Mode::kUpper) == increasing) {
        pick = atHi;
      } else {
        return std::nullopt;
      }
    }
    result += *pick;
  }
  return bound(result, mode, indicesOnly, depth - 1);
}

std::optional<Expr> RangeAnalyzer::bound(const Expr& e, Mode mode, bool indicesOnly,
                                         int depth) const {
  if (depth <= 0 || !proverAdmit()) return std::nullopt;
  if (e.isConstant()) return e;
  const BoundKey key{e, mode == Mode::kUpper, indicesOnly};
  if (auto it = boundCache_.find(key); it != boundCache_.end()) return it->second;

  const auto& table = asm_->table();
  const auto free = e.freeSymbols();

  // Candidate victims: loop indices first, innermost preferred (an index is
  // "inner" if no other index's bound in `e` depends on it); then, unless
  // indicesOnly, the remaining symbols. Trying candidates in order makes the
  // analysis robust to one substitution direction being unprovable.
  std::vector<SymbolId> candidates;
  std::vector<SymbolId> outerIndices;
  for (SymbolId id : free) {
    if (table.kind(id) != SymbolKind::kIndex) continue;
    bool isOuterOfAnother = false;
    for (SymbolId other : free) {
      if (other == id || table.kind(other) != SymbolKind::kIndex) continue;
      auto lo = asm_->lower(other);
      auto hi = asm_->upper(other);
      if ((lo && lo->contains(id)) || (hi && hi->contains(id))) {
        isOuterOfAnother = true;
        break;
      }
    }
    (isOuterOfAnother ? outerIndices : candidates).push_back(id);
  }
  candidates.insert(candidates.end(), outerIndices.begin(), outerIndices.end());
  if (!indicesOnly) {
    for (SymbolId id : free) {
      if (table.kind(id) != SymbolKind::kIndex) candidates.push_back(id);
    }
  }
  if (candidates.empty()) return e;  // nothing to eliminate: e itself is the bound

  for (SymbolId victim : candidates) {
    if (auto r = boundEliminating(e, victim, mode, indicesOnly, depth)) {
      boundCache_.emplace(key, r);
      return r;
    }
  }
  boundCache_.emplace(key, std::nullopt);
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Integer-valuedness
// ---------------------------------------------------------------------------

bool RangeAnalyzer::proveIntegerValued(const Expr& e) const {
  if (!memo_) return integerValuedImpl(e);
  return proveIntegerValued(ExprIntern::global().intern(e));
}

bool RangeAnalyzer::proveIntegerValued(const InternedExpr& e) const {
  return memoized<ProofMemoContext::Op::kIntegerValued>(
      e, [&] { return integerValuedImpl(*e); }, {.strictWitness = std::nullopt, .resetScratch = false});
}

bool RangeAnalyzer::integerValuedImpl(const Expr& e) const {
  for (const auto& m : e.terms()) {
    const Rational& c = m.coeff();
    if (c.isInteger()) continue;
    // Fractional coefficient: only a pow2 factor can compensate. den must be
    // a power of two, and the exponent must provably cover it.
    if (!m.hasPow2()) return false;
    std::int64_t den = c.den();
    std::int64_t k = 0;
    while (den % 2 == 0) {
      den /= 2;
      ++k;
    }
    if (den != 1) return false;
    if (!proveNonNegative(m.pow2Exponent() - Expr::constant(k))) return false;
  }
  return true;
}

}  // namespace ad::sym
