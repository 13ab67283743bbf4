// Edge-case batteries: behaviours not covered by the mainline tests —
// degenerate loops, empty graphs, emptied ILP ranges, folded-distribution
// corners, expression-algebra stress.
#include <gtest/gtest.h>

#include <random>

#include "comm/schedule.hpp"
#include "driver/pipeline.hpp"
#include "frontend/parser.hpp"
#include "ir/walker.hpp"
#include "lcg/lcg.hpp"
#include "reference_oracles.hpp"

namespace ad {
namespace {

using sym::Expr;

Expr c(std::int64_t v) { return Expr::constant(v); }

// ---------------------------------------------------------------------------
// Expression algebra stress
// ---------------------------------------------------------------------------

TEST(ExprEdge, MultiTermDivisionStress) {
  sym::SymbolTable st;
  const auto n = st.parameter("N");
  const auto k = st.index("k");
  const Expr N = Expr::symbol(n);
  const Expr K = Expr::symbol(k);
  // (N+1)(N+2)(K+3) / ((N+1)(N+2)) == K+3.
  const Expr d = (N + c(1)) * (N + c(2));
  const auto q = Expr::divideExact(d * (K + c(3)), d);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(*q, K + c(3));
  // Non-divisible multi-term: fail cleanly.
  EXPECT_FALSE(Expr::divideExact(d * K + c(1), d).has_value());
  // Self-division of a polynomial.
  const auto one = Expr::divideExact(d, d);
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ(one->asInteger(), 1);
}

TEST(ExprEdge, Pow2ExponentContainingProducts) {
  sym::SymbolTable st;
  const auto i = st.index("i");
  const auto j = st.index("j");
  const Expr e = Expr::pow2(Expr::symbol(i) * Expr::symbol(j));
  EXPECT_TRUE(e.contains(i));
  EXPECT_TRUE(e.contains(j));
  // Linear decompose must refuse symbols buried in exponents.
  EXPECT_FALSE(e.linearDecompose(i).has_value());
  // But substitution reaches them.
  EXPECT_EQ(e.substitute(i, c(0)).asInteger(), 1);
}

TEST(ExprEdge, Pow2ConstantExponentLimits) {
  EXPECT_EQ(Expr::pow2(c(62)).asInteger(), std::int64_t{1} << 62);
  EXPECT_THROW((void)Expr::pow2(c(63)), ContractViolation);
  EXPECT_THROW((void)Expr::pow2(c(-63)), ContractViolation);
  // Non-integer constant exponent is a contract violation, not UB.
  EXPECT_THROW((void)Expr::pow2(Expr::constant(Rational(1, 2))), ContractViolation);
}

TEST(ExprEdge, CompareIsAntisymmetricAndTransitive) {
  sym::SymbolTable st;
  const auto a = st.index("a");
  const auto b = st.index("b");
  std::mt19937 rng(99);
  std::uniform_int_distribution<int> pick(0, 4);
  const auto randExpr = [&](auto&& self, int depth) -> Expr {
    switch (depth <= 0 ? pick(rng) % 3 : pick(rng)) {
      case 0:
        return c(pick(rng) - 2);
      case 1:
        return Expr::symbol(a);
      case 2:
        return Expr::symbol(b);
      case 3:
        return self(self, depth - 1) + self(self, depth - 1);
      default:
        return self(self, depth - 1) * self(self, depth - 1);
    }
  };
  std::vector<Expr> pool;
  for (int t = 0; t < 24; ++t) pool.push_back(randExpr(randExpr, 2));
  const auto sign = [](int v) { return v < 0 ? -1 : (v > 0 ? 1 : 0); };
  for (const auto& x : pool) {
    EXPECT_EQ(x.compare(x), 0);
    for (const auto& y : pool) {
      EXPECT_EQ(sign(x.compare(y)), -sign(y.compare(x)));
      EXPECT_EQ(x.compare(y) == 0, x == y);
      for (const auto& z : pool) {
        if (x.compare(y) < 0 && y.compare(z) < 0) {
          EXPECT_LT(x.compare(z), 0);
        }
      }
    }
  }
}

TEST(ExprEdge, EvaluateRejectsFractionalPow2Properly) {
  sym::SymbolTable st;
  const auto l = st.index("L");
  const Expr e = Expr::pow2(-Expr::symbol(l));
  EXPECT_EQ(e.evaluate({{l, 0}}), Rational(1));
  EXPECT_EQ(e.evaluate({{l, 3}}), Rational(1, 8));
}

// ---------------------------------------------------------------------------
// Walker degenerate nests
// ---------------------------------------------------------------------------

TEST(WalkerEdge, EmptyLoopRangeYieldsNothing) {
  ir::Program prog;
  prog.declareArray("A", c(100));
  ir::PhaseBuilder b(prog, "f");
  b.doall("i", c(5), c(4));  // lo > hi: zero iterations
  b.read("A", b.idx("i"));
  b.commit();
  prog.validate();
  int count = 0;
  reference::forEachRunAccess(
      prog, prog.phase(0), {},
      [&](const reference::ConcreteAccess&, const ir::Bindings&) { ++count; });
  EXPECT_EQ(count, 0);
  EXPECT_EQ(ir::parallelTripCount(prog.phase(0), {}), 0);
  EXPECT_TRUE(reference::touchedAddresses(prog, prog.phase(0), "A", {}).empty());
}

TEST(WalkerEdge, SequentialOnlyPhase) {
  ir::Program prog;
  prog.declareArray("A", c(100));
  ir::PhaseBuilder b(prog, "seq");
  b.loop("i", c(0), c(3));  // no DOALL at all
  b.write("A", b.idx("i"));
  b.commit();
  prog.validate();
  EXPECT_FALSE(prog.phase(0).hasParallelLoop());
  EXPECT_EQ(ir::parallelTripCount(prog.phase(0), {}), 1);
  reference::forEachRunAccess(prog, prog.phase(0), {},
                              [&](const reference::ConcreteAccess& a, const ir::Bindings&) {
                                EXPECT_EQ(a.parallelIter, 0);
                              });
}

// ---------------------------------------------------------------------------
// DSM distribution corners
// ---------------------------------------------------------------------------

TEST(DsmEdge, FoldedHaloRespectsFoldedGeometry) {
  const auto d = dsm::DataDistribution::foldedBlockCyclic(4, 64);
  // Owner of the fold class of addr 62 is owner(2) = PE0; with halo 1,
  // its fold-neighbours' owners hold replicas.
  EXPECT_EQ(d.owner(62, 4), d.owner(2, 4));
  EXPECT_TRUE(d.isLocal(62, d.owner(2, 4), 4, 0));
  // Halo applies on folded coordinates: addr 4 (class 4, block 1, within 0)
  // is halo-local to the owner of block 0.
  EXPECT_FALSE(d.isLocal(4, d.owner(0, 4), 4, 0));
  EXPECT_TRUE(d.isLocal(4, d.owner(0, 4), 4, 1));
}

TEST(DsmEdge, ContractViolationsOnBadInputs) {
  EXPECT_THROW((void)dsm::DataDistribution::blockCyclic(0), ContractViolation);
  EXPECT_THROW((void)dsm::DataDistribution::foldedBlockCyclic(1, 0), ContractViolation);
  const dsm::IterationDistribution bad{0};
  EXPECT_THROW((void)bad.executor(0, 4), ContractViolation);
  const auto repl = dsm::DataDistribution::replicated();
  EXPECT_THROW((void)repl.owner(0, 4), ContractViolation);
}

TEST(DsmEdge, RedistributionLivenessWalk) {
  const auto prog = frontend::parseProgram(R"(
    param N
    array A(N)
    array B(N)
    phase p1 { doall i = 0, N-1 { write A(i) } }
    phase p2 { doall i = 0, N-1 { read A(i) write B(i) } }
    phase p3 { doall i = 0, N-1 { write A(i) } }
  )");
  // Entering p2, A's values are live (p2 reads); entering p3 they are dead.
  EXPECT_TRUE(dsm::redistributionMovesData(prog, "A", 1));
  EXPECT_FALSE(dsm::redistributionMovesData(prog, "A", 2));
  // B after p2: never used again -> dead.
  EXPECT_FALSE(dsm::redistributionMovesData(prog, "B", 2));
}

// ---------------------------------------------------------------------------
// LCG corners
// ---------------------------------------------------------------------------

TEST(LcgEdge, SingleAccessArrayHasOneNodeNoEdges) {
  const auto prog = frontend::parseProgram(R"(
    param N
    array A(N)
    array B(N)
    phase only {
      doall i = 0, N - 1 { read A(i) write B(i) }
    }
  )");
  const auto n = *prog.symbols().lookup("N");
  const auto lcg = lcg::buildLCG(prog, {{n, 16}}, 4);
  const auto& g = lcg.graph("A");
  EXPECT_EQ(g.nodes.size(), 1u);
  EXPECT_TRUE(g.edges.empty());
  ASSERT_EQ(g.chains().size(), 1u);
  EXPECT_EQ(g.chains()[0].size(), 1u);
  EXPECT_EQ(lcg.communicationEdges(), 0u);
}

TEST(LcgEdge, UnaccessedArrayGetsNoGraph) {
  const auto prog = frontend::parseProgram(R"(
    param N
    array A(N)
    array GHOST(N)
    phase f { doall i = 0, N - 1 { update A(i) } }
  )");
  const auto n = *prog.symbols().lookup("N");
  const auto lcg = lcg::buildLCG(prog, {{n, 16}}, 4);
  EXPECT_EQ(lcg.graphs().size(), 1u);
  EXPECT_THROW((void)lcg.graph("GHOST"), ProgramError);
}

// ---------------------------------------------------------------------------
// ILP emptied by storage bounds -> graceful greedy fallback
// ---------------------------------------------------------------------------

TEST(IlpEdge, StorageBoundEmptiesRangeGracefully) {
  // A conjugate-pair phase over a tiny array on many processors: the
  // Delta_r/2 storage bound forces p*H <= 10, infeasible for H = 16.
  const auto prog = frontend::parseProgram(R"(
    param N
    array X(2*N + 1)
    phase mirror {
      doall i = 0, N - 1 {
        read X(i)
        write X(2*N - i)
      }
    }
  )");
  const auto n = *prog.symbols().lookup("N");
  driver::PipelineConfig config;
  config.params = {{n, 10}};
  config.processors = 16;
  config.simulateBaseline = false;
  const auto result = driver::analyzeAndSimulate(prog, config);
  EXPECT_FALSE(result.solution.feasible);
  // The greedy fallback still yields a runnable plan.
  EXPECT_GT(result.planned.parallelTime(), 0.0);
}

// ---------------------------------------------------------------------------
// Communication schedule corners
// ---------------------------------------------------------------------------

TEST(CommEdge, AggregationPricesOnePutPerMessage) {
  // Aggregation packs a pair's runs into one put: at H the schedule's messages
  // cost less than its runs sent one by one, for the same words.
  const auto from = dsm::DataDistribution::blockCyclic(4);
  const auto to = dsm::DataDistribution::blockCyclic(16);
  const auto sched = comm::generateGlobal("X", 256, from, to, 4);
  const auto messages = static_cast<std::int64_t>(sched.messageCount());
  const auto runs = static_cast<std::int64_t>(sched.ranges().size());
  ASSERT_LT(messages, runs);
  dsm::MachineParams machine;
  machine.processors = 4;
  EXPECT_LT(machine.transferTime(messages, sched.totalWords()),
            machine.transferTime(runs, sched.totalWords()));
}

}  // namespace
}  // namespace ad
