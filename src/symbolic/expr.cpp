#include "symbolic/expr.hpp"

#include <algorithm>
#include <ostream>
#include <set>
#include <sstream>

#include "support/diagnostics.hpp"

namespace ad::sym {

// ---------------------------------------------------------------------------
// SymbolTable
// ---------------------------------------------------------------------------

SymbolId SymbolTable::intern(const std::string& name, SymbolKind kind) {
  if (auto it = byName_.find(name); it != byName_.end()) {
    AD_REQUIRE(infos_[it->second].kind == kind,
               "symbol '" + name + "' re-declared with a different kind");
    return it->second;
  }
  const auto id = static_cast<SymbolId>(infos_.size());
  infos_.push_back(Info{name, kind, {}});
  byName_.emplace(name, id);
  return id;
}

SymbolId SymbolTable::parameter(const std::string& name) {
  return intern(name, SymbolKind::kParameter);
}

SymbolId SymbolTable::index(const std::string& name) { return intern(name, SymbolKind::kIndex); }

SymbolId SymbolTable::pow2Parameter(const std::string& name, const std::string& logName) {
  AD_REQUIRE(byName_.find(name) == byName_.end() ||
                 (lookup(logName) && infos_[*lookup(logName)].pow2ParamName == name),
             "pow2 parameter '" + name + "' conflicts with an existing symbol");
  const SymbolId log = intern(logName, SymbolKind::kLog2Parameter);
  infos_[log].pow2ParamName = name;
  // Record the parameter name so lookups resolve to the log symbol.
  byName_.emplace(name, log);
  return log;
}

std::optional<SymbolId> SymbolTable::lookup(const std::string& name) const {
  if (auto it = byName_.find(name); it != byName_.end()) return it->second;
  return std::nullopt;
}

const std::string& SymbolTable::name(SymbolId id) const {
  AD_REQUIRE(id < infos_.size(), "symbol id out of range");
  return infos_[id].name;
}

SymbolKind SymbolTable::kind(SymbolId id) const {
  AD_REQUIRE(id < infos_.size(), "symbol id out of range");
  return infos_[id].kind;
}

const std::string& SymbolTable::pow2ParamName(SymbolId id) const {
  AD_REQUIRE(id < infos_.size(), "symbol id out of range");
  return infos_[id].pow2ParamName;
}

Expr makeSymbolExpr(SymbolTable& table, const std::string& name, bool internIfMissing) {
  if (auto id = table.lookup(name)) {
    if (table.kind(*id) == SymbolKind::kLog2Parameter && table.pow2ParamName(*id) == name) {
      return Expr::pow2(Expr::symbol(*id));
    }
    return Expr::symbol(*id);
  }
  AD_REQUIRE(internIfMissing, "unknown symbol '" + name + "'");
  return Expr::symbol(table.parameter(name));
}

// ---------------------------------------------------------------------------
// Monomial
// ---------------------------------------------------------------------------

const Expr& Monomial::pow2Exponent() const {
  AD_REQUIRE(pow2_ != nullptr, "monomial has no pow2 factor");
  return *pow2_;
}

bool Monomial::sameKey(const Monomial& other) const { return compareKey(other) == 0; }

int Monomial::compareKey(const Monomial& other) const {
  return Expr::compareMonomialKey(*this, other);
}

namespace {

int totalDegree(const Monomial& m) {
  int d = 0;
  for (const auto& f : m.symbols()) d += f.power;
  return d;
}

/// 2^k as a Rational; |k| must stay within int64 range.
Rational pow2Rational(std::int64_t k) {
  AD_REQUIRE(k >= -62 && k <= 62, "pow2 constant exponent out of representable range");
  const std::int64_t v = std::int64_t{1} << (k < 0 ? -k : k);
  return k >= 0 ? Rational(v) : Rational(1, v);
}

std::int64_t checkedIPow(std::int64_t base, int exp) {
  std::int64_t r = 1;
  for (int i = 0; i < exp; ++i) r = checkedMul(r, base);
  return r;
}

}  // namespace

int Expr::compareMonomialKey(const Monomial& a, const Monomial& b) {
  // Graded ordering on the symbol part keeps multivariate division sane.
  const int da = totalDegree(a);
  const int db = totalDegree(b);
  if (da != db) return da < db ? -1 : 1;
  const auto& sa = a.symbols();
  const auto& sb = b.symbols();
  for (std::size_t i = 0; i < std::min(sa.size(), sb.size()); ++i) {
    if (sa[i].id != sb[i].id) return sa[i].id < sb[i].id ? -1 : 1;
    if (sa[i].power != sb[i].power) return sa[i].power < sb[i].power ? -1 : 1;
  }
  if (sa.size() != sb.size()) return sa.size() < sb.size() ? -1 : 1;
  const bool pa = a.hasPow2();
  const bool pb = b.hasPow2();
  if (pa != pb) return pa ? 1 : -1;
  if (pa) return a.pow2Exponent().compare(b.pow2Exponent());
  return 0;
}

// ---------------------------------------------------------------------------
// Expr construction & normalization
// ---------------------------------------------------------------------------

Expr Expr::constant(std::int64_t value) { return constant(Rational(value)); }

Expr Expr::constant(Rational value) {
  Expr e;
  if (!value.isZero()) e.terms_.push_back(Monomial(value));
  return e;
}

Expr Expr::symbol(SymbolId id) {
  Expr e;
  Monomial m(Rational(1));
  m.symbols_.push_back(SymbolFactor{id, 1});
  e.terms_.push_back(std::move(m));
  return e;
}

Expr Expr::monomial(const Monomial& m) {
  Expr e;
  if (!m.coeff_.isZero()) e.terms_.push_back(m);
  return e;
}

Expr Expr::pow2(const Expr& exponent) {
  const Rational c = exponent.constantTerm();
  AD_REQUIRE(c.isInteger(), "pow2 exponent with non-integer constant part");
  // The constant monomial has the smallest key, so it is the first term.
  Expr rest;
  rest.terms_.assign(exponent.terms_.begin() + (c.isZero() ? 0 : 1), exponent.terms_.end());
  const Rational coeff = pow2Rational(c.asInteger());
  if (rest.isZero()) return Expr::constant(coeff);
  Expr e;
  Monomial m(coeff);
  m.pow2_ = std::make_shared<const Expr>(std::move(rest));
  e.terms_.push_back(std::move(m));
  return e;
}

bool Expr::isConstant() const noexcept {
  return terms_.empty() || (terms_.size() == 1 && terms_[0].isConstant());
}

std::optional<Rational> Expr::asConstant() const {
  if (terms_.empty()) return Rational(0);
  if (terms_.size() == 1 && terms_[0].isConstant()) return terms_[0].coeff();
  return std::nullopt;
}

std::optional<std::int64_t> Expr::asInteger() const {
  if (auto c = asConstant(); c && c->isInteger()) return c->asInteger();
  return std::nullopt;
}

Rational Expr::constantTerm() const {
  for (const auto& m : terms_) {
    if (m.isConstant()) return m.coeff();
  }
  return Rational(0);
}

void Expr::normalizeSort() {
  std::sort(terms_.begin(), terms_.end(),
            [](const Monomial& a, const Monomial& b) { return compareMonomialKey(a, b) < 0; });
  // Sum each run of like terms into its first slot and compact in place.
  std::size_t out = 0;
  for (std::size_t i = 0; i < terms_.size();) {
    Rational c = terms_[i].coeff_;
    std::size_t j = i + 1;
    for (; j < terms_.size() && terms_[i].sameKey(terms_[j]); ++j) c += terms_[j].coeff_;
    if (!c.isZero()) {
      if (out != i) terms_[out] = std::move(terms_[i]);
      terms_[out++].coeff_ = c;
    }
    i = j;
  }
  terms_.erase(terms_.begin() + static_cast<std::ptrdiff_t>(out), terms_.end());
}

// ---------------------------------------------------------------------------
// Arithmetic
// ---------------------------------------------------------------------------

Expr Expr::operator-() const {
  Expr r = *this;
  for (auto& m : r.terms_) m.coeff_ = -m.coeff_;
  return r;
}

Expr Expr::merge(const Expr& a, const Expr& b, bool negateB) {
  Expr r;
  r.terms_.reserve(a.terms_.size() + b.terms_.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.terms_.size() || j < b.terms_.size()) {
    const int k = i == a.terms_.size()   ? 1
                  : j == b.terms_.size() ? -1
                                         : compareMonomialKey(a.terms_[i], b.terms_[j]);
    const Monomial& m = k < 0 ? a.terms_[i] : b.terms_[j];
    Rational c = k < 0 || !negateB ? m.coeff_ : -m.coeff_;
    if (k == 0) c += a.terms_[i].coeff_;
    if (k <= 0) ++i;
    if (k >= 0) ++j;
    if (c.isZero()) continue;  // like terms cancelled
    r.terms_.push_back(m);
    r.terms_.back().coeff_ = c;
  }
  return r;
}

Expr operator+(const Expr& a, const Expr& b) { return Expr::merge(a, b, false); }

Expr operator-(const Expr& a, const Expr& b) { return Expr::merge(a, b, true); }

Monomial Expr::mulMonomial(const Monomial& a, const Monomial& b) {
  Monomial r(a.coeff_ * b.coeff_);
  // Merge sorted symbol factor lists, adding powers.
  auto ia = a.symbols_.begin();
  auto ib = b.symbols_.begin();
  while (ia != a.symbols_.end() || ib != b.symbols_.end()) {
    if (ib == b.symbols_.end() || (ia != a.symbols_.end() && ia->id < ib->id)) {
      r.symbols_.push_back(*ia++);
    } else if (ia == a.symbols_.end() || ib->id < ia->id) {
      r.symbols_.push_back(*ib++);
    } else {
      r.symbols_.push_back(SymbolFactor{ia->id, ia->power + ib->power});
      ++ia;
      ++ib;
    }
  }
  if (a.pow2_ && b.pow2_) {
    Expr sum = *a.pow2_ + *b.pow2_;
    // Constant parts of the two exponents are zero, so the sum's is too.
    if (!sum.isZero()) r.pow2_ = std::make_shared<const Expr>(std::move(sum));
  } else if (a.pow2_) {
    r.pow2_ = a.pow2_;
  } else if (b.pow2_) {
    r.pow2_ = b.pow2_;
  }
  return r;
}

Expr operator*(const Expr& a, const Expr& b) {
  Expr r;
  r.terms_.reserve(a.terms_.size() * b.terms_.size());
  for (const auto& ma : a.terms_) {
    for (const auto& mb : b.terms_) {
      r.terms_.push_back(Expr::mulMonomial(ma, mb));
    }
  }
  r.normalizeSort();
  return r;
}

std::optional<Monomial> Expr::divideMonomial(const Monomial& a, const Monomial& b) {
  AD_REQUIRE(!b.coeff_.isZero(), "division by zero monomial");
  Monomial r(a.coeff_ / b.coeff_);
  auto ia = a.symbols_.begin();
  for (const auto& fb : b.symbols_) {
    while (ia != a.symbols_.end() && ia->id < fb.id) r.symbols_.push_back(*ia++);
    if (ia == a.symbols_.end() || ia->id != fb.id || ia->power < fb.power) return std::nullopt;
    if (ia->power > fb.power) r.symbols_.push_back(SymbolFactor{ia->id, ia->power - fb.power});
    ++ia;
  }
  while (ia != a.symbols_.end()) r.symbols_.push_back(*ia++);
  // pow2 parts always divide: exponents subtract.
  if (a.pow2_ && b.pow2_) {
    Expr diff = *a.pow2_ - *b.pow2_;
    if (!diff.isZero()) r.pow2_ = std::make_shared<const Expr>(std::move(diff));
  } else if (a.pow2_) {
    r.pow2_ = a.pow2_;
  } else if (b.pow2_) {
    Expr neg = -*b.pow2_;
    r.pow2_ = std::make_shared<const Expr>(std::move(neg));
  }
  return r;
}

std::optional<Expr> Expr::divideExact(const Expr& a, const Expr& b) {
  AD_REQUIRE(!b.isZero(), "division by zero expression");
  if (a.isZero()) return Expr();
  if (b.terms_.size() == 1) {
    Expr q;
    for (const auto& m : a.terms_) {
      auto d = divideMonomial(m, b.terms_[0]);
      if (!d) return std::nullopt;
      q.terms_.push_back(std::move(*d));
    }
    q.normalizeSort();
    return q;
  }
  // Multivariate division: repeatedly cancel the leading (largest-key) term of
  // the remainder against the leading term of the divisor. A step cap guards
  // against the (pathological) non-terminating cases that the pow2-graded
  // ordering cannot rule out.
  Expr remainder = a;
  Expr quotient;
  const Monomial& lead = b.terms_.back();
  for (int step = 0; step < 1000; ++step) {
    if (remainder.isZero()) return quotient;
    const Monomial& t = remainder.terms_.back();
    auto q = divideMonomial(t, lead);
    if (!q) return std::nullopt;
    const Expr qe = Expr::monomial(*q);
    quotient += qe;
    remainder -= qe * b;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

bool operator==(const Expr& a, const Expr& b) { return a.compare(b) == 0; }

int Expr::compare(const Expr& other) const {
  const std::size_t n = std::min(terms_.size(), other.terms_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const int k = compareMonomialKey(terms_[i], other.terms_[i]);
    if (k != 0) return k;
    const Rational& ca = terms_[i].coeff();
    const Rational& cb = other.terms_[i].coeff();
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (terms_.size() != other.terms_.size()) return terms_.size() < other.terms_.size() ? -1 : 1;
  return 0;
}

// ---------------------------------------------------------------------------
// Free symbols, substitution, evaluation
// ---------------------------------------------------------------------------

namespace {
void collectSymbols(const Expr& e, std::set<SymbolId>& out) {
  for (const auto& m : e.terms()) {
    for (const auto& f : m.symbols()) out.insert(f.id);
    if (m.hasPow2()) collectSymbols(m.pow2Exponent(), out);
  }
}
}  // namespace

std::vector<SymbolId> Expr::freeSymbols() const {
  std::set<SymbolId> s;
  collectSymbols(*this, s);
  return {s.begin(), s.end()};
}

template <typename Pred>
bool Expr::mentions(const Pred& pred) const {
  for (const auto& m : terms_) {
    for (const auto& f : m.symbols_) {
      if (pred(f.id)) return true;
    }
    if (m.pow2_ && m.pow2_->mentions(pred)) return true;
  }
  return false;
}

bool Expr::contains(SymbolId id) const {
  return mentions([id](SymbolId s) { return s == id; });
}

template <typename Bound>
Expr Expr::substituteWith(const Bound& bound) const {
  const auto isBound = [&](SymbolId s) { return bound(s) != nullptr; };
  if (!mentions(isBound)) return *this;
  // Untouched monomials are copied as they are; each touched one expands to
  // (its untouched factors) * value^power per bound factor, and the whole
  // collection is normalized once at the end.
  Expr result;
  for (const auto& m : terms_) {
    const bool expBound = m.pow2_ && m.pow2_->mentions(isBound);
    const auto factorBound = [&](const SymbolFactor& f) { return isBound(f.id); };
    if (!expBound && std::none_of(m.symbols_.begin(), m.symbols_.end(), factorBound)) {
      result.terms_.push_back(m);
      continue;
    }
    Monomial base(m.coeff_);
    for (const auto& f : m.symbols_) {
      if (!isBound(f.id)) base.symbols_.push_back(f);
    }
    if (expBound) {
      const Expr p = Expr::pow2(m.pow2_->substituteWith(bound));
      base.coeff_ *= p.terms_[0].coeff_;
      base.pow2_ = p.terms_[0].pow2_;
    } else {
      base.pow2_ = m.pow2_;
    }
    Expr term;
    term.terms_.push_back(std::move(base));
    for (const auto& f : m.symbols_) {
      if (const Expr* v = bound(f.id)) {
        for (int i = 0; i < f.power; ++i) term = term * *v;
      }
    }
    result.terms_.insert(result.terms_.end(), std::make_move_iterator(term.terms_.begin()),
                         std::make_move_iterator(term.terms_.end()));
  }
  result.normalizeSort();
  return result;
}

Expr Expr::substitute(SymbolId id, const Expr& value) const {
  return substituteWith([&](SymbolId s) { return s == id ? &value : nullptr; });
}

Expr Expr::substitute(const std::map<SymbolId, Expr>& bindings) const {
  return substituteWith([&](SymbolId s) -> const Expr* {
    auto it = bindings.find(s);
    return it == bindings.end() ? nullptr : &it->second;
  });
}

Rational Expr::evaluate(const std::map<SymbolId, std::int64_t>& bindings) const {
  Rational total(0);
  for (const auto& m : terms_) {
    Rational v = m.coeff();
    for (const auto& f : m.symbols_) {
      auto it = bindings.find(f.id);
      if (it == bindings.end()) {
        throw AnalysisError("evaluate: unbound symbol id " + std::to_string(f.id));
      }
      v *= Rational(checkedIPow(it->second, f.power));
    }
    if (m.pow2_) {
      const Rational e = m.pow2_->evaluate(bindings);
      if (!e.isInteger()) throw AnalysisError("evaluate: non-integer pow2 exponent");
      v *= pow2Rational(e.asInteger());
    }
    total += v;
  }
  return total;
}

std::optional<std::pair<Expr, Expr>> Expr::linearDecompose(SymbolId sym) const {
  Expr a;  // coefficient of sym
  Expr b;  // remainder: the terms free of sym, still in order
  for (const auto& m : terms_) {
    if (m.pow2_ && m.pow2_->contains(sym)) return std::nullopt;
    const auto f = std::find_if(m.symbols_.begin(), m.symbols_.end(),
                                [&](const SymbolFactor& s) { return s.id == sym; });
    if (f == m.symbols_.end()) {
      b.terms_.push_back(m);
      continue;
    }
    if (f->power != 1) return std::nullopt;
    Monomial stripped = m;
    stripped.symbols_.erase(stripped.symbols_.begin() + (f - m.symbols_.begin()));
    a.terms_.push_back(std::move(stripped));
  }
  a.normalizeSort();
  return std::make_pair(std::move(a), std::move(b));
}

// ---------------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------------

namespace {

/// Factor of the 2-adic valuation: value = 2^k * rest with rest odd.
std::pair<std::int64_t, std::int64_t> splitPow2(std::int64_t v) {
  std::int64_t k = 0;
  while (v != 0 && v % 2 == 0) {
    v /= 2;
    ++k;
  }
  return {k, v};
}

void printMonomial(std::ostream& os, const Monomial& m, const SymbolTable& table, bool leading) {
  Rational coeff = m.coeff();
  // Fold the 2-adic part of the coefficient into the displayed pow2 exponent.
  Expr shownExp;
  bool hasExp = false;
  if (m.hasPow2()) {
    auto [kn, numOdd] = splitPow2(coeff.num());
    auto [kd, denOdd] = splitPow2(coeff.den());
    coeff = Rational(numOdd, denOdd);
    shownExp = m.pow2Exponent() + Expr::constant(kn - kd);
    hasExp = true;
  }
  // Present pow2(log-symbol) factors as the original parameter name, so that
  // pow2(p - L) prints as "P*2^(-L)" when P was declared as 2^p.
  std::vector<std::pair<std::string, int>> paramFactors;
  if (hasExp) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (SymbolId id : shownExp.freeSymbols()) {
        if (table.kind(id) != SymbolKind::kLog2Parameter) continue;
        if (table.pow2ParamName(id).empty()) continue;
        auto dec = shownExp.linearDecompose(id);
        if (!dec) continue;
        auto k = dec->first.asInteger();
        if (!k || *k <= 0) continue;
        paramFactors.emplace_back(table.pow2ParamName(id), static_cast<int>(*k));
        shownExp = dec->second;
        changed = true;
        break;
      }
    }
    // If what remains is a constant, fold it back into the coefficient.
    if (auto c = shownExp.asInteger()) {
      if (*c >= -62 && *c <= 62) {
        coeff = coeff * pow2Rational(*c);
        hasExp = false;
      }
    } else if (shownExp.isZero()) {
      hasExp = false;
    }
  }

  // Sign.
  if (coeff.sign() < 0) {
    os << (leading ? "-" : " - ");
    coeff = -coeff;
  } else if (!leading) {
    os << " + ";
  }

  std::vector<std::string> factors;
  if (coeff != Rational(1) || (m.symbols().empty() && paramFactors.empty() && !hasExp)) {
    factors.push_back(coeff.str());
  }
  for (const auto& [name, power] : paramFactors) {
    factors.push_back(power == 1 ? name : name + "^" + std::to_string(power));
  }
  for (const auto& f : m.symbols()) {
    factors.push_back(f.power == 1 ? table.name(f.id)
                                   : table.name(f.id) + "^" + std::to_string(f.power));
  }
  if (hasExp) {
    const std::string es = shownExp.str(table);
    const bool simple = es.find_first_of("+- ") == std::string::npos;
    factors.push_back(simple ? "2^" + es : "2^(" + es + ")");
  }
  for (std::size_t i = 0; i < factors.size(); ++i) {
    if (i != 0) os << "*";
    os << factors[i];
  }
}

}  // namespace

std::string Expr::str(const SymbolTable& table) const {
  if (terms_.empty()) return "0";
  std::ostringstream os;
  // Print highest-degree terms first for readability.
  for (std::size_t i = terms_.size(); i-- > 0;) {
    printMonomial(os, terms_[i], table, i + 1 == terms_.size());
  }
  return os.str();
}

}  // namespace ad::sym
