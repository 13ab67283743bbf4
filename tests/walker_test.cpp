// The run walker against the every-access reference walk
// (reference::forEachAccess): ir::forEachRun's runs, expanded access by
// access (reference::forEachRunAccess), must report the same access stream,
// element by element — ref, address, parallel iteration and the index
// bindings — and fail at the same access.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#include "../bench/workload_gen.hpp"
#include "codes/suite.hpp"
#include "codes/tfft2.hpp"
#include "frontend/parser.hpp"
#include "ir/walker.hpp"
#include "reference_oracles.hpp"
#include "support/diagnostics.hpp"

namespace ad::ir {
namespace {

using sym::Expr;

Expr c(std::int64_t v) { return Expr::constant(v); }

/// One walk, flattened: per access the ref index, address and parallel
/// iteration, then every (symbol, value) binding passed to the callback.
struct Stream {
  std::vector<std::int64_t> words;
  std::vector<std::size_t> starts;  ///< offset of each access in `words`
  std::string error;                ///< what() of the AnalysisError that ended the walk
};

/// kStepped: reference::forEachRunAccess. kRuns: ir::forEachRun's runs
/// expanded here access by access, without bindings. kReference: reference::forEachAccess;
/// kReferenceNoBindings: the same without bindings, to compare with kRuns.
enum class Walk { kStepped, kReference, kRuns, kReferenceNoBindings };

Stream capture(Walk walk, const Program& prog, const Phase& phase, const Bindings& params) {
  Stream s;
  const auto access = [&](const ArrayRef* ref, std::int64_t address, std::int64_t parallelIter) {
    s.starts.push_back(s.words.size());
    s.words.push_back(ref - phase.refs().data());
    s.words.push_back(address);
    s.words.push_back(parallelIter);
  };
  const auto record = [&](const reference::ConcreteAccess& a, const Bindings& b) {
    access(a.ref, a.address, a.parallelIter);
    if (walk == Walk::kReferenceNoBindings) return;
    for (const auto& [id, value] : b) {
      s.words.push_back(id);
      s.words.push_back(value);
    }
  };
  try {
    if (walk == Walk::kStepped) {
      reference::forEachRunAccess(prog, phase, params, record);
    } else if (walk == Walk::kRuns) {
      forEachRun(LoweredPhase(phase, params), [&](const AccessRun& run, Bindings&) {
        for (std::int64_t t = 0; t < run.count; ++t) {
          for (const RefRun& r : run.refs) access(r.ref, r.start + r.step * t, run.parallelIterAt(t));
        }
      });
    } else {
      reference::forEachAccess(prog, phase, params, record);
    }
  } catch (const AnalysisError& e) {
    s.error = e.what();
  }
  return s;
}

/// Expects `walk` (kStepped or kRuns) of every phase to reproduce the
/// reference walk. Returns the number of accesses compared.
std::size_t expectSameStreams(const Program& prog, const Bindings& params,
                              const std::string& label, Walk walk = Walk::kStepped) {
  std::size_t compared = 0;
  for (const Phase& phase : prog.phases()) {
    const Stream want = capture(walk == Walk::kRuns ? Walk::kReferenceNoBindings : Walk::kReference,
                                prog, phase, params);
    const Stream got = capture(walk, prog, phase, params);
    EXPECT_EQ(got.error, want.error) << label << " phase " << phase.name();
    EXPECT_EQ(got.starts.size(), want.starts.size()) << label << " phase " << phase.name();
    if (got.words != want.words) {
      std::size_t n = 0;
      while (n < got.starts.size() && n < want.starts.size() &&
             std::equal(got.words.begin() + got.starts[n],
                        got.words.begin() + (n + 1 < got.starts.size() ? got.starts[n + 1]
                                                                        : got.words.size()),
                        want.words.begin() + want.starts[n],
                        want.words.begin() + (n + 1 < want.starts.size() ? want.starts[n + 1]
                                                                         : want.words.size()))) {
        ++n;
      }
      ADD_FAILURE() << label << " phase " << phase.name() << ": streams differ at access " << n;
    }
    compared += want.starts.size();
  }
  return compared;
}

TEST(StrengthReducedWalker, MatchesReferenceOnTheSuite) {
  for (const auto& code : codes::benchmarkSuite()) {
    const Program prog = code.build();
    for (const auto* params : {&code.smallParams, &code.simParams}) {
      const std::string label =
          code.name + (params == &code.smallParams ? " smallParams" : " simParams");
      EXPECT_GT(expectSameStreams(prog, codes::bindParams(prog, *params), label), 0u) << label;
    }
  }
}

TEST(StrengthReducedWalker, MatchesReferenceOnTFFT2PowerOfTwoSubscripts) {
  // TFFT2's butterflies index with 2^(L-1) * J: the inner index sits inside a
  // pow2 exponent in some refs (evaluated per access) and is linear in others.
  const Program prog = codes::makeTFFT2();
  expectSameStreams(prog, codes::bindParams(prog, {{"P", 32}, {"Q", 8}}), "tfft2 32x8");
  expectSameStreams(prog, codes::bindParams(prog, {{"P", 4}, {"Q", 64}}), "tfft2 4x64");
}

TEST(StrengthReducedWalker, MatchesReferenceOnTriangularAndZeroTripNests) {
  Program prog;
  const Expr n = Expr::symbol(prog.symbols().parameter("N"));
  prog.declareArray("A", n * n);
  prog.declareArray("B", n * n);
  {
    // Upper triangle: the inner run shrinks with i, down to one iteration.
    PhaseBuilder b(prog, "upper");
    b.doall("i", c(0), n - c(1)).loop("j", b.idx("i"), n - c(1));
    b.read("A", n * b.idx("i") + b.idx("j")).write("B", n * b.idx("j") + b.idx("i"));
    b.commit();
  }
  {
    // Inner loop empty for i < 3 and one trip at i = 3.
    PhaseBuilder b(prog, "zero_trip");
    b.doall("i", c(0), c(5)).loop("j", c(3), b.idx("i"));
    b.read("A", b.idx("i") + c(2) * b.idx("j"));
    b.commit();
  }
  {
    // The DOALL is innermost: parallelIter changes at every iteration.
    PhaseBuilder b(prog, "inner_doall");
    b.loop("t", c(0), c(2)).doall("i", b.idx("t"), n - c(1));
    b.update("A", n * b.idx("t") + b.idx("i"));
    b.commit();
  }
  {
    // Nothing runs at all.
    PhaseBuilder b(prog, "empty");
    b.doall("i", c(4), c(3)).loop("j", c(0), c(7));
    b.read("A", b.idx("i") + b.idx("j"));
    b.commit();
  }
  prog.validate();
  const sym::SymbolId nId = *prog.symbols().lookup("N");
  for (const std::int64_t size : {1, 2, 7}) {
    expectSameStreams(prog, {{nId, size}}, "N=" + std::to_string(size));
  }
}

TEST(StrengthReducedWalker, MatchesReferenceOnAPhaseWithoutLoops) {
  Program prog;
  const Expr n = Expr::symbol(prog.symbols().parameter("N"));
  prog.declareArray("A", n);
  PhaseBuilder b(prog, "scalar");
  b.read("A", c(3)).write("A", n - c(1));
  b.commit();
  prog.validate();
  EXPECT_EQ(expectSameStreams(prog, {{*prog.symbols().lookup("N"), 10}}, "no loops"), 2u);
}

TEST(StrengthReducedWalker, MatchesReferenceOnFractionalCoefficients) {
  // (j*j + j)/2 is integral but not linear in j, and 2^j puts j in an
  // exponent: both are evaluated at every access. (N/2)*j has a fractional
  // symbolic coefficient whose value is an integer for even N: stepped.
  Program prog;
  const Expr n = Expr::symbol(prog.symbols().parameter("N"));
  prog.declareArray("A", n * n * n);
  const Expr half = Expr::constant(Rational(1, 2));
  PhaseBuilder b(prog, "fractional");
  b.doall("i", c(0), n - c(1)).loop("j", c(0), n - c(1));
  b.read("A", half * (b.idx("j") * b.idx("j") + b.idx("j")) + b.idx("i"));
  b.read("A", Expr::pow2(b.idx("j")));
  b.write("A", half * n * b.idx("j") + half * b.idx("i") * (b.idx("i") + c(1)));
  b.commit();
  prog.validate();
  EXPECT_EQ(expectSameStreams(prog, {{*prog.symbols().lookup("N"), 6}}, "fractional"),
            6u * 6u * 3u);
}

TEST(StrengthReducedWalker, NonIntegralSubscriptFailsAtTheSameAccess) {
  Program prog;
  prog.declareArray("A", c(100));
  const Expr half = Expr::constant(Rational(1, 2));
  {
    // i = 0: stride 0, stepped. i = 1: stride 1/2, evaluated per access;
    // the second access of that run, A(1/2), is the first failure.
    PhaseBuilder b(prog, "stride");
    b.doall("i", c(0), c(3)).loop("j", c(0), c(3));
    b.read("A", b.idx("i") + b.idx("j")).read("A", half * b.idx("i") * b.idx("j"));
    b.commit();
  }
  {
    // Integral stride, fractional offset: the run's first access fails.
    PhaseBuilder b(prog, "offset");
    b.doall("i", c(0), c(3)).loop("j", c(0), c(3));
    b.read("A", b.idx("j")).write("A", half * b.idx("i") + b.idx("j"));
    b.commit();
  }
  prog.validate();
  expectSameStreams(prog, {}, "non-integral");
  for (const Phase& phase : prog.phases()) {
    const Stream got = capture(Walk::kStepped, prog, phase, {});
    EXPECT_EQ(got.error, "subscript is not integral") << phase.name();
  }
  EXPECT_EQ(capture(Walk::kStepped, prog, prog.phase(0), {}).starts.size(), 4u * 2u + 2u + 1u);
  EXPECT_EQ(capture(Walk::kStepped, prog, prog.phase(1), {}).starts.size(), 4u * 2u + 1u);
}

/// Runs of `walk` over every phase: (count, number of refs) of each.
std::vector<std::pair<std::int64_t, std::size_t>> runShapes(const Program& prog,
                                                            const Bindings& params) {
  std::vector<std::pair<std::int64_t, std::size_t>> shapes;
  for (const Phase& phase : prog.phases()) {
    forEachRun(LoweredPhase(phase, params), [&](const AccessRun& run, Bindings&) {
      shapes.emplace_back(run.count, run.refs.size());
    });
  }
  return shapes;
}

TEST(RunWalker, MatchesReferenceOnTheSuite) {
  for (const auto& code : codes::benchmarkSuite()) {
    const Program prog = code.build();
    for (const auto* params : {&code.smallParams, &code.simParams}) {
      const std::string label =
          code.name + (params == &code.smallParams ? " smallParams" : " simParams");
      EXPECT_GT(expectSameStreams(prog, codes::bindParams(prog, *params), label, Walk::kRuns), 0u)
          << label;
    }
  }
  const Program tfft2 = codes::makeTFFT2();
  for (const std::int64_t p : {4, 32}) {
    const std::int64_t q = 256 / p;
    expectSameStreams(tfft2, codes::bindParams(tfft2, {{"P", p}, {"Q", q}}),
                      "tfft2 P=" + std::to_string(p), Walk::kRuns);
  }
}

TEST(RunWalker, MatchesReferenceOnGeneratedStencilsAndButterflies) {
  // The six offset families lower completely: each run is a whole j row
  // (N - 2 iterations) and carries every ref.
  for (std::size_t family = 0; family < bench::offsetFamilies().size(); ++family) {
    for (const std::size_t variant : {0u, 1u, 2u, 5u}) {
      const Program prog = frontend::parseProgram(bench::generateStencilSource(family, variant));
      const std::string label = bench::generatedLabel(family, variant);
      for (const std::int64_t n : {3, 9}) {
        const Bindings params = codes::bindParams(prog, {{"N", n}});
        EXPECT_GT(expectSameStreams(prog, params, label, Walk::kRuns), 0u) << label;
        for (const auto& [count, refs] : runShapes(prog, params)) {
          EXPECT_EQ(count, n - 2) << label;
          EXPECT_GE(refs, 2u) << label;
        }
      }
    }
  }
  // The butterflies carry 2^(l-1) with the loop index l in the exponent:
  // they do not lower and are stepped from evalInt once per j run.
  for (std::size_t variant = 0; variant < bench::kPow2Variants; ++variant) {
    const Program prog = frontend::parseProgram(bench::generatePow2Source(variant));
    for (const std::int64_t n : {2, 8}) {
      const Bindings params = codes::bindParams(prog, {{"N", n}});
      EXPECT_GT(expectSameStreams(prog, params, bench::pow2Label(variant), Walk::kRuns), 0u);
      for (const auto& shape : runShapes(prog, params)) EXPECT_EQ(shape.first, n);
    }
  }
}

TEST(RunWalker, MatchesReferenceOnEdgeNests) {
  Program prog;
  const Expr n = Expr::symbol(prog.symbols().parameter("N"));
  prog.declareArray("A", n * n + c(8));
  const Expr half = Expr::constant(Rational(1, 2));
  {
    // A fractional stride: A(i + j/2) is not integral at j = 1, the second
    // iteration of every run; the first run's second access fails.
    PhaseBuilder b(prog, "half_stride");
    b.doall("i", c(0), n - c(1)).loop("j", c(0), n - c(1));
    b.read("A", b.idx("i") + half * b.idx("j")).write("A", b.idx("i"));
    b.commit();
  }
  {
    // The DOALL is the innermost loop, under a sequential loop.
    PhaseBuilder b(prog, "inner_doall");
    b.loop("t", c(0), c(2)).doall("i", c(0), n - c(1));
    b.read("A", n * b.idx("t") + b.idx("i")).write("A", b.idx("i") + c(1));
    b.commit();
  }
  {
    // The inner range is empty for every i.
    PhaseBuilder b(prog, "empty_inner");
    b.doall("i", c(0), n - c(1)).loop("j", n, n - c(1));
    b.read("A", b.idx("i") + b.idx("j"));
    b.commit();
  }
  {
    // Triangular: do j = i, N.
    PhaseBuilder b(prog, "triangular");
    b.doall("i", c(0), n).loop("j", b.idx("i"), n);
    b.read("A", n * b.idx("i") + b.idx("j")).write("A", n * b.idx("j") + b.idx("i"));
    b.commit();
  }
  {
    // Stride i/2: integral for even i, evaluated per access for odd i, where
    // the second ref's second access, A(1/2) at i = 1, fails.
    PhaseBuilder b(prog, "odd_stride");
    b.doall("i", c(0), c(3)).loop("j", c(0), c(3));
    b.read("A", b.idx("i") + b.idx("j")).read("A", half * b.idx("i") * b.idx("j"));
    b.commit();
  }
  {
    // Integral stride, fractional offset: the run's first access fails.
    PhaseBuilder b(prog, "half_offset");
    b.doall("i", c(0), c(3)).loop("j", c(0), c(3));
    b.read("A", b.idx("j")).write("A", half * b.idx("i") + b.idx("j"));
    b.commit();
  }
  prog.validate();
  const sym::SymbolId nId = *prog.symbols().lookup("N");
  for (const std::int64_t size : {1, 2, 5}) {
    const std::string label = "N=" + std::to_string(size);
    expectSameStreams(prog, {{nId, size}}, label, Walk::kRuns);
    expectSameStreams(prog, {{nId, size}}, label);
  }
  const Bindings five = {{nId, 5}};
  const Stream halfStride = capture(Walk::kRuns, prog, prog.phase(0), five);
  EXPECT_EQ(halfStride.error, "subscript is not integral");
  EXPECT_EQ(halfStride.starts.size(), 2u);  // A(0) A(0) at j = 0; A(1/2) throws
  EXPECT_TRUE(capture(Walk::kRuns, prog, prog.phase(2), five).starts.empty());
  EXPECT_EQ(capture(Walk::kRuns, prog, prog.phase(4), five).starts.size(), 4u * 2u + 2u + 1u);
  EXPECT_EQ(capture(Walk::kRuns, prog, prog.phase(5), five).starts.size(), 4u * 2u + 1u);
}

/// The value of `e` under `b` as Expr::evaluate gives it: the integer, "not
/// integral", or the message of what it threw.
std::string evaluateOutcome(const Expr& e, const Bindings& b) {
  try {
    const Rational r = e.evaluate(b);
    return r.isInteger() ? std::to_string(r.asInteger()) : "not integral";
  } catch (const std::exception& ex) {
    return std::string("throws: ") + ex.what();
  }
}

/// The same for evalInt.
std::string evalIntOutcome(const Expr& e, const Bindings& b) {
  try {
    return std::to_string(evalInt(e, b, "value"));
  } catch (const AnalysisError& ex) {
    if (std::string(ex.what()) == "value is not integral") return "not integral";
    return std::string("throws: ") + ex.what();
  } catch (const std::exception& ex) {
    return std::string("throws: ") + ex.what();
  }
}

TEST(EvalInt, AgreesWithEvaluateOnTheSuite) {
  // At every iteration of every phase: the subscripts, the loop bounds, and
  // the stride and offset of each subscript in the innermost index, which
  // are what the stepped walker evaluates.
  for (const auto& code : codes::benchmarkSuite()) {
    const Program prog = code.build();
    for (const auto* params : {&code.smallParams, &code.simParams}) {
      const std::string label =
          code.name + (params == &code.smallParams ? " smallParams" : " simParams");
      for (const Phase& phase : prog.phases()) {
        std::vector<Expr> exprs;
        for (const auto& r : phase.refs()) {
          exprs.push_back(r.subscript);
          if (phase.loops().empty()) continue;
          if (auto dec = r.subscript.linearDecompose(phase.loops().back().index)) {
            exprs.push_back(dec->first);
            exprs.push_back(dec->second);
          }
        }
        for (const auto& l : phase.loops()) {
          exprs.push_back(l.lower);
          exprs.push_back(l.upper);
        }
        std::size_t mismatches = 0;
        const Bindings bound = codes::bindParams(prog, *params);
        reference::forEachIteration(prog, phase, bound, [&](const Bindings& b) {
          for (const Expr& e : exprs) {
            const std::string want = evaluateOutcome(e, b);
            const std::string got = evalIntOutcome(e, b);
            if (got != want && ++mismatches <= 3) {
              ADD_FAILURE() << label << " phase " << phase.name() << ": " << e.str(prog.symbols())
                            << " gives " << got << ", evaluate gives " << want;
            }
          }
        });
        EXPECT_EQ(mismatches, 0u) << label << " phase " << phase.name();
      }
    }
  }
}

TEST(EvalInt, AgreesWithEvaluateOnOverflowAndUnboundSymbols) {
  sym::SymbolTable symbols;
  const sym::SymbolId nId = symbols.parameter("N");
  const sym::SymbolId mId = symbols.parameter("M");
  const Expr n = Expr::symbol(nId);
  const Expr m = Expr::symbol(mId);
  const Bindings big = {{nId, std::int64_t{1} << 31}};
  const Expr half = Expr::constant(Rational(1, 2));
  const struct {
    Expr e;
    Bindings b;
    bool throws;
  } cases[] = {
      {n * n * n, big, true},     // the power overflows
      {c(4) * n * n, big, true},  // the coefficient product overflows
      {n * n + c(std::numeric_limits<std::int64_t>::max()), big, true},  // the sum overflows
      {Expr::pow2(n), {{nId, 70}}, true},  // 2^70
      {n * n + m, big, true},              // M is unbound
      {m, {}, true},
      {n * n, big, false},  // 2^62 still fits
      {half * n * n, big, false},
      {half * n + c(1), {{nId, 3}}, false},  // 5/2 is not integral
  };
  for (const auto& k : cases) {
    const std::string want = evaluateOutcome(k.e, k.b);
    EXPECT_EQ(evalIntOutcome(k.e, k.b), want) << k.e.str(symbols);
    EXPECT_EQ(want.rfind("throws: ", 0) == 0, k.throws) << k.e.str(symbols) << " gives " << want;
  }
}

}  // namespace
}  // namespace ad::ir
