#include <gtest/gtest.h>

#include <exception>
#include <functional>
#include <optional>
#include <random>

#include "codes/suite.hpp"
#include "descriptors/phase_descriptor.hpp"
#include "reference_oracles.hpp"
#include "support/diagnostics.hpp"
#include "symbolic/expr.hpp"

namespace ad::sym {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  SymbolTable st;
  SymbolId p = st.pow2Parameter("P", "p");  // P = 2^p
  SymbolId q = st.parameter("Q");
  SymbolId I = st.index("I");
  SymbolId L = st.index("L");
  SymbolId J = st.index("J");
  SymbolId K = st.index("K");

  Expr P() const { return Expr::pow2(Expr::symbol(p)); }
  Expr Q() const { return Expr::symbol(q); }
  Expr sym(SymbolId id) const { return Expr::symbol(id); }
  Expr c(std::int64_t v) const { return Expr::constant(v); }
};

TEST_F(ExprTest, ConstantsFold) {
  EXPECT_TRUE((c(2) + c(3) - c(5)).isZero());
  EXPECT_EQ((c(2) * c(3)).asInteger(), 6);
  EXPECT_EQ(Expr().asInteger(), 0);
}

TEST_F(ExprTest, LikeTermsCombine) {
  Expr e = sym(I) + sym(I) + sym(I);
  EXPECT_EQ(e, c(3) * sym(I));
  EXPECT_TRUE((e - c(3) * sym(I)).isZero());
}

TEST_F(ExprTest, Pow2OfConstantIsConstant) {
  EXPECT_EQ(Expr::pow2(c(5)).asInteger(), 5 == 0 ? 1 : 32);
  EXPECT_EQ(Expr::pow2(c(0)).asInteger(), 1);
  auto half = Expr::pow2(c(-1)).asConstant();
  ASSERT_TRUE(half.has_value());
  EXPECT_EQ(*half, Rational(1, 2));
}

TEST_F(ExprTest, Pow2ConstantPartFoldsIntoCoefficient) {
  // pow2(L-1) == (1/2) * pow2(L): identical normal forms.
  Expr a = Expr::pow2(sym(L) - c(1));
  Expr b = Expr::constant(Rational(1, 2)) * Expr::pow2(sym(L));
  EXPECT_EQ(a, b);
}

TEST_F(ExprTest, Pow2ProductsAddExponents) {
  Expr a = Expr::pow2(sym(L)) * Expr::pow2(sym(p) - sym(L));
  EXPECT_EQ(a, P());
  // 2^(L-1) * 2^(1-L) == 1.
  Expr b = Expr::pow2(sym(L) - c(1)) * Expr::pow2(c(1) - sym(L));
  EXPECT_EQ(b.asInteger(), 1);
}

TEST_F(ExprTest, Pow2ParameterIdentities) {
  // P/2 == 2^(p-1).
  auto half = Expr::divideExact(P(), c(2));
  ASSERT_TRUE(half.has_value());
  EXPECT_EQ(*half, Expr::pow2(sym(p) - c(1)));
}

TEST_F(ExprTest, TFFT2SubscriptStride) {
  // phi = 2*P*I + 2^(L-1)*J + K. Stride w.r.t. L is phi[L+1] - phi[L]
  // = 2^(L-1)*J (the paper's delta_2).
  Expr phi = c(2) * P() * sym(I) + Expr::pow2(sym(L) - c(1)) * sym(J) + sym(K);
  Expr strideL = phi.substitute(L, sym(L) + c(1)) - phi;
  EXPECT_EQ(strideL, Expr::pow2(sym(L) - c(1)) * sym(J));

  Expr strideI = phi.substitute(I, sym(I) + c(1)) - phi;
  EXPECT_EQ(strideI, c(2) * P());

  Expr strideK = phi.substitute(K, sym(K) + c(1)) - phi;
  EXPECT_EQ(strideK.asInteger(), 1);
}

TEST_F(ExprTest, TFFT2AlphaForLLoop) {
  // span_L = phi(L=p) - phi(L=1) = J*(P/2 - 1); alpha = span/stride + 1
  // must equal (P-2)*2^-L + 1 (paper Figure 2).
  Expr term = Expr::pow2(sym(L) - c(1)) * sym(J);
  Expr span = term.substitute(L, sym(p)) - term.substitute(L, c(1));
  Expr stride = Expr::pow2(sym(L) - c(1)) * sym(J);
  auto alphaMinus1 = Expr::divideExact(span, stride);
  ASSERT_TRUE(alphaMinus1.has_value());
  Expr expected = (P() - c(2)) * Expr::pow2(-sym(L));
  EXPECT_EQ(*alphaMinus1, expected);
}

TEST_F(ExprTest, DivideExactSingleMonomial) {
  Expr e = c(6) * sym(I) * sym(J) + c(4) * sym(J);
  auto q2 = Expr::divideExact(e, c(2) * sym(J));
  ASSERT_TRUE(q2.has_value());
  EXPECT_EQ(*q2, c(3) * sym(I) + c(2));
  // Not exact: dividing by I fails on the second term.
  EXPECT_FALSE(Expr::divideExact(e, sym(I)).has_value());
}

TEST_F(ExprTest, DivideExactMultiTermDivisor) {
  // (N+1)*(k+3) / (N+1) == k+3, the 2-D row-major linearization case.
  SymbolId n = st.parameter("N");
  SymbolId k = st.index("k2");
  Expr np1 = sym(n) + c(1);
  Expr prod = np1 * (sym(k) + c(3));
  auto quotient = Expr::divideExact(prod, np1);
  ASSERT_TRUE(quotient.has_value());
  EXPECT_EQ(*quotient, sym(k) + c(3));
  // (N+2) does not divide it.
  EXPECT_FALSE(Expr::divideExact(prod, sym(n) + c(2)).has_value());
}

TEST_F(ExprTest, DivisionCancelsSymbols) {
  // J*2^(p-1) - J divided by J*2^(L-1) -> P*2^-L - 2^(1-L).
  Expr numerator = sym(J) * Expr::pow2(sym(p) - c(1)) - sym(J);
  Expr denominator = sym(J) * Expr::pow2(sym(L) - c(1));
  auto quotient = Expr::divideExact(numerator, denominator);
  ASSERT_TRUE(quotient.has_value());
  Expr expected = Expr::pow2(sym(p) - sym(L)) - Expr::pow2(c(1) - sym(L));
  EXPECT_EQ(*quotient, expected);
}

TEST_F(ExprTest, SubstituteIntoExponent) {
  Expr e = Expr::pow2(sym(L) - c(1));
  EXPECT_EQ(e.substitute(L, c(4)).asInteger(), 8);
  EXPECT_EQ(e.substitute(L, sym(p)), Expr::pow2(sym(p) - c(1)));
}

TEST_F(ExprTest, SubstituteMap) {
  Expr phi = c(2) * P() * sym(I) + Expr::pow2(sym(L) - c(1)) * sym(J) + sym(K);
  std::map<SymbolId, Expr> b{{I, c(1)}, {L, c(2)}, {J, c(1)}, {K, c(1)}};
  Expr r = phi.substitute(b);
  EXPECT_EQ(r, c(2) * P() + c(3));
}

TEST_F(ExprTest, EvaluateNumeric) {
  Expr phi = c(2) * P() * sym(I) + Expr::pow2(sym(L) - c(1)) * sym(J) + sym(K);
  // P = 4 means p = 2.
  std::map<SymbolId, std::int64_t> bind{{p, 2}, {I, 1}, {L, 2}, {J, 1}, {K, 1}};
  EXPECT_EQ(phi.evaluate(bind), Rational(2 * 4 * 1 + 2 * 1 + 1));
}

TEST_F(ExprTest, EvaluateRationalIntermediate) {
  Expr e = P() * Expr::pow2(-sym(L));  // P * 2^-L
  std::map<SymbolId, std::int64_t> bind{{p, 3}, {L, 2}};
  EXPECT_EQ(e.evaluate(bind), Rational(2));
  bind[L] = 4;
  EXPECT_EQ(e.evaluate(bind), Rational(1, 2));
}

TEST_F(ExprTest, EvaluateUnboundThrows) {
  EXPECT_THROW((void)sym(I).evaluate({}), AnalysisError);
}

TEST_F(ExprTest, LinearDecompose) {
  Expr e = c(2) * P() * sym(I) + sym(K) + c(7);
  auto d = e.linearDecompose(I);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->first, c(2) * P());
  EXPECT_EQ(d->second, sym(K) + c(7));
  // Quadratic occurrence fails.
  EXPECT_FALSE((sym(I) * sym(I)).linearDecompose(I).has_value());
  // Occurrence inside a pow2 exponent fails.
  EXPECT_FALSE(Expr::pow2(sym(I)).linearDecompose(I).has_value());
}

TEST_F(ExprTest, FreeSymbolsIncludeExponents) {
  Expr e = Expr::pow2(sym(L) - c(1)) * sym(J);
  auto fs = e.freeSymbols();
  EXPECT_EQ(fs.size(), 2u);
  EXPECT_TRUE(e.contains(L));
  EXPECT_TRUE(e.contains(J));
  EXPECT_FALSE(e.contains(I));
}

TEST_F(ExprTest, CompareIsTotalOrder) {
  Expr a = sym(I);
  Expr b = sym(J);
  Expr d = c(1);
  EXPECT_NE(a.compare(b), 0);
  EXPECT_EQ(a.compare(a), 0);
  EXPECT_EQ(a.compare(b), -b.compare(a));
  EXPECT_NE(d.compare(a), 0);
}

TEST_F(ExprTest, PrinterReadableForms) {
  EXPECT_EQ(Expr().str(st), "0");
  EXPECT_EQ((c(2) * P() * sym(I)).str(st), "2*P*I");
  EXPECT_EQ(P().str(st), "P");
  auto half = Expr::divideExact(P(), c(2));
  ASSERT_TRUE(half.has_value());
  EXPECT_EQ(half->str(st), "1/2*P");  // accepted rendering of P/2
}

TEST_F(ExprTest, PrinterNonAffine) {
  Expr e = Expr::pow2(sym(L) - c(1)) * sym(J);
  const std::string s = e.str(st);
  // Must mention both J and a power of two of L.
  EXPECT_NE(s.find('J'), std::string::npos);
  EXPECT_NE(s.find("2^"), std::string::npos);
}

TEST_F(ExprTest, MakeSymbolExprResolvesPow2Params) {
  Expr e = makeSymbolExpr(st, "P");
  EXPECT_EQ(e, P());
  Expr f = makeSymbolExpr(st, "Q");
  EXPECT_EQ(f, Q());
  EXPECT_THROW((void)makeSymbolExpr(st, "nope"), ContractViolation);
  Expr g = makeSymbolExpr(st, "R", /*internIfMissing=*/true);
  EXPECT_FALSE(g.isZero());
}

// ---------------------------------------------------------------------------
// Kernel differential: the merge-based +, - and substitute against the
// sort-based reference kernels in tests/reference_oracles.*.
// ---------------------------------------------------------------------------

/// Keys strictly increasing, coefficients nonzero, and every pow2 exponent
/// nonzero, free of a constant term and itself in normal form.
::testing::AssertionResult inNormalForm(const Expr& e) {
  const auto& t = e.terms();
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].coeff().isZero()) {
      return ::testing::AssertionFailure() << "zero coefficient at term " << i;
    }
    if (i > 0 && t[i - 1].compareKey(t[i]) >= 0) {
      return ::testing::AssertionFailure() << "keys not strictly increasing at term " << i;
    }
    if (t[i].hasPow2()) {
      const Expr& x = t[i].pow2Exponent();
      if (x.isZero() || !x.constantTerm().isZero()) {
        return ::testing::AssertionFailure() << "pow2 exponent zero or with a constant, term " << i;
      }
      if (auto r = inNormalForm(x); !r) return r;
    }
  }
  return ::testing::AssertionSuccess();
}

/// The kernel's result, or nullopt when it throws (a pow2 exponent with a
/// fractional constant, or an overflowing coefficient).
std::optional<Expr> attempt(const std::function<Expr()>& kernel) {
  try {
    return kernel();
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Both kernels throw, or both return the same normal form.
void expectSameKernelResult(const std::function<Expr()>& kernel,
                            const std::function<Expr()>& reference, const std::string& what) {
  const std::optional<Expr> got = attempt(kernel);
  const std::optional<Expr> want = attempt(reference);
  ASSERT_EQ(got.has_value(), want.has_value()) << what;
  if (!got) return;
  EXPECT_EQ(got->compare(*want), 0) << what;
  EXPECT_TRUE(inNormalForm(*got)) << what;
}

/// Seeded random Exprs: rational coefficients, multi-symbol monomials with
/// powers up to 3, and up to two pow2 factors per monomial whose exponents
/// are drawn from a pool of opposite pairs, so some cancel to a constant.
class RandomExprs {
 public:
  RandomExprs(std::uint32_t seed, std::vector<SymbolId> symbols)
      : rng_(seed), symbols_(std::move(symbols)) {
    for (std::size_t i = 0; i < symbols_.size(); ++i) {
      const Expr a = Expr::symbol(symbols_[i]);
      const Expr b = Expr::symbol(symbols_[(i + 1) % symbols_.size()]);
      for (const Expr& x : {a, a - b, c(2) * a + b + c(1), a * b - c(3)}) {
        exponents_.push_back(x);
        exponents_.push_back(-x);
      }
    }
  }

  int uniform(int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng_); }

  Expr monomial() {
    int num = uniform(-6, 6);
    if (num == 0) num = 1;
    Expr m = Expr::constant(Rational(num, uniform(1, 4)));
    for (int n = uniform(0, 3); n > 0; --n) {
      const Expr s = Expr::symbol(symbols_[uniform(0, static_cast<int>(symbols_.size()) - 1)]);
      for (int k = uniform(1, 3); k > 0; --k) m = m * s;
    }
    for (int n = uniform(-1, 2); n > 0; --n) {
      m = m * Expr::pow2(exponents_[uniform(0, static_cast<int>(exponents_.size()) - 1)]);
    }
    return m;
  }

  Expr expr(int maxTerms = 5) {
    Expr e;
    for (int n = uniform(0, maxTerms); n > 0; --n) e = reference::add(e, monomial());
    return e;
  }

 private:
  static Expr c(std::int64_t v) { return Expr::constant(v); }
  std::mt19937 rng_;
  std::vector<SymbolId> symbols_;
  std::vector<Expr> exponents_;
};

TEST_F(ExprTest, MergeKernelsMatchSortBasedReference) {
  RandomExprs gen(20260417u, {p, q, I, L, J});
  for (int round = 0; round < 3000; ++round) {
    const Expr a = gen.expr();
    Expr b;
    switch (round % 4) {
      case 0: b = a; break;                           // exact cancellation in a - b
      case 1: b = reference::add(a, gen.expr(2)); break;  // mostly like terms
      default: b = gen.expr(); break;
    }
    const std::string what = "round " + std::to_string(round) + ": a = " + a.str(st) +
                             ", b = " + b.str(st);
    ASSERT_TRUE(inNormalForm(a)) << what;
    expectSameKernelResult([&] { return a + b; }, [&] { return reference::add(a, b); }, what);
    expectSameKernelResult([&] { return a - b; }, [&] { return reference::subtract(a, b); },
                           what);
    expectSameKernelResult([&] { return b - a; }, [&] { return reference::subtract(b, a); },
                           what);
    expectSameKernelResult([&] { return a + Expr(); }, [&] { return a; }, what);
    expectSameKernelResult([&] { return Expr() - a; }, [&] { return -a; }, what);
  }
  EXPECT_TRUE((Expr() + Expr()).isZero());
  EXPECT_TRUE((Expr() - Expr()).isZero());
}

TEST_F(ExprTest, SubstituteMatchesSortBasedReference) {
  const std::vector<SymbolId> symbols = {p, q, I, L, J};
  RandomExprs gen(20260418u, symbols);
  for (int round = 0; round < 2000; ++round) {
    const Expr e = gen.expr();
    const SymbolId s = symbols[static_cast<std::size_t>(gen.uniform(0, 4))];
    const SymbolId t = symbols[static_cast<std::size_t>(gen.uniform(0, 4))];
    // Values that shift a symbol (cancelling opposite pow2 exponents) as well
    // as random polynomials.
    Expr value;
    switch (round % 3) {
      case 0: value = sym(t) + c(gen.uniform(-2, 2)); break;
      case 1: value = -sym(t); break;
      default: value = gen.expr(3); break;
    }
    const std::map<SymbolId, Expr> one{{s, value}};
    const std::map<SymbolId, Expr> two{{s, value}, {t, gen.expr(2)}};
    const std::string what = "round " + std::to_string(round) + ": e = " + e.str(st) +
                             ", value = " + value.str(st);
    expectSameKernelResult([&] { return e.substitute(s, value); },
                           [&] { return reference::substitute(e, one); }, what);
    expectSameKernelResult([&] { return e.substitute(two); },
                           [&] { return reference::substitute(e, two); }, what);
  }
  const Expr e = sym(I) * sym(J) + Expr::pow2(sym(L));
  EXPECT_EQ(e.substitute(K, c(3)).compare(e), 0);  // no bound symbol: unchanged
  EXPECT_EQ(e.substitute(std::map<SymbolId, Expr>{}).compare(e), 0);
}

TEST(ExprKernelSuite, SubstituteMatchesReferenceOnEverySuiteExpr) {
  std::size_t compared = 0;
  for (const auto& info : codes::benchmarkSuite()) {
    const ir::Program prog = info.build();
    std::vector<Expr> exprs;
    for (std::size_t k = 0; k < prog.phases().size(); ++k) {
      const ir::Phase& phase = prog.phase(k);
      for (const auto& loop : phase.loops()) {
        exprs.push_back(loop.lower);
        exprs.push_back(loop.upper);
      }
      for (const auto& ref : phase.refs()) exprs.push_back(ref.subscript);
      for (const auto& arr : prog.arrays()) {
        if (!phase.accesses(arr.name)) continue;
        try {
          const auto pd = desc::buildPhaseDescriptor(prog, k, arr.name);
          for (const auto& term : pd.terms()) {
            for (const auto& d : term.dims) {
              exprs.push_back(d.delta);
              exprs.push_back(d.alpha);
            }
            for (const Expr& x : {term.tau, term.deltaP, term.seqMin, term.seqMax}) {
              exprs.push_back(x);
            }
          }
        } catch (const AnalysisError&) {
          // Outside the representable class: no descriptor entries to check.
        }
      }
    }
    ASSERT_FALSE(exprs.empty()) << info.name;
    // Each entry, once per symbol of the code, bound to another entry.
    for (std::size_t i = 0; i < exprs.size(); ++i) {
      for (SymbolId s = 0; s < prog.symbols().size(); ++s) {
        const Expr& value = exprs[(i + s + 1) % exprs.size()];
        const std::map<SymbolId, Expr> binding{{s, value}};
        expectSameKernelResult([&] { return exprs[i].substitute(s, value); },
                               [&] { return reference::substitute(exprs[i], binding); },
                               info.name + ": " + exprs[i].str(prog.symbols()) + " with " +
                                   prog.symbols().name(s) + " := " +
                                   value.str(prog.symbols()));
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 1000u);
}

}  // namespace
}  // namespace ad::sym
