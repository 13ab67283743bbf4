// Supplementary coverage: range-analysis facts, cost-model monotonicity,
// report/DOT completeness, parser precedence.
#include <gtest/gtest.h>

#include "codes/suite.hpp"
#include "codes/tfft2.hpp"
#include "driver/pipeline.hpp"
#include "frontend/parser.hpp"
#include "ilp/cost_model.hpp"
#include "reference_oracles.hpp"

namespace ad {
namespace {

using sym::Expr;

Expr c(std::int64_t v) { return Expr::constant(v); }

TEST(RangesFacts, LoopNonEmptinessDischargesResidues) {
  sym::SymbolTable st;
  const auto n = st.parameter("N");
  sym::Assumptions assumptions(st);
  // Without the fact, N - 3 is indeterminate (N >= 1 by default)...
  {
    const sym::RangeAnalyzer ra(assumptions);
    EXPECT_FALSE(ra.proveNonNegative(Expr::symbol(n) - c(3)));
  }
  // ...with a "do j = 1, N-2 executes" fact it follows.
  assumptions.addFact(Expr::symbol(n) - c(3));
  {
    const sym::RangeAnalyzer ra(assumptions);
    EXPECT_TRUE(ra.proveNonNegative(Expr::symbol(n) - c(3)));
    // And simple consequences: N - 2 >= 0, 2N - 6 >= 0.
    EXPECT_TRUE(ra.proveNonNegative(Expr::symbol(n) - c(2)));
    EXPECT_TRUE(ra.provePositive(Expr::symbol(n) - c(2)));
    // But not stronger claims.
    EXPECT_FALSE(ra.proveNonNegative(Expr::symbol(n) - c(4)));
  }
}

TEST(RangesFacts, SignApi) {
  sym::SymbolTable st;
  const auto n = st.parameter("N");
  const sym::Assumptions assumptions(st);
  const sym::RangeAnalyzer ra(assumptions);
  EXPECT_EQ(ra.sign(Expr::symbol(n)), 1);
  EXPECT_EQ(ra.sign(-Expr::symbol(n)), -1);
  EXPECT_EQ(ra.sign(Expr::symbol(n) - Expr::symbol(n)), 0);
  EXPECT_FALSE(ra.sign(Expr::symbol(n) - c(5)).has_value());
}

TEST(CostModel, FrontierAndRedistributionMonotonicity) {
  ilp::CostParams cp;
  // A wider halo refreshes more words at the same boundaries.
  const auto refresh = [&cp](std::int64_t halo) {
    const dsm::RedistributionStats t = dsm::refreshTraffic(1 << 10, 16, halo);
    return cp.transferTime(t.messages, t.wordsMoved);
  };
  EXPECT_LT(refresh(1), refresh(100));
  // Larger machines split the redistribution volume further: H * (H - 1)
  // aggregated puts at H processors.
  const auto redistribution = [&cp](std::int64_t processors) {
    ilp::CostParams at = cp;
    at.processors = processors;
    return at.transferTime(processors * (processors - 1), 1 << 16);
  };
  EXPECT_GT(redistribution(4), redistribution(64));
  // Imbalance grows with trip remainder.
  EXPECT_EQ(ilp::imbalanceCost(64, 4, 4, 1.0, cp), 0.0);
  // A chunk spanning most of the trip concentrates work on one processor.
  EXPECT_GT(ilp::imbalanceCost(65, 64, 4, 1.0, cp), ilp::imbalanceCost(65, 1, 4, 1.0, cp));
}

TEST(Report, ContainsEverySection) {
  const auto prog = codes::makeTFFT2();
  driver::PipelineConfig config;
  config.params = codes::bindParams(prog, {{"P", 16}, {"Q", 16}});
  config.processors = 4;
  const auto result = driver::analyzeAndSimulate(prog, config);
  const auto rep = result.report(prog);
  for (const char* needle :
       {"=== LCG ===", "=== ILP model (Table-2 form) ===", "=== Solution ===",
        "=== Iteration distributions ===", "=== Communication schedules ===",
        "=== Simulated execution", "efficiency", "CYCLIC("}) {
    EXPECT_NE(rep.find(needle), std::string::npos) << needle;
  }
}

TEST(Dot, MentionsEveryNodeAndEdgeLabel) {
  const auto prog = codes::makeTFFT2();
  const auto params = codes::bindParams(prog, {{"P", 16}, {"Q", 16}});
  const auto lcg = lcg::buildLCG(prog, params, 4);
  const auto dot = lcg.dot();
  for (int k = 1; k <= 8; ++k) {
    EXPECT_NE(dot.find("F" + std::to_string(k)), std::string::npos) << k;
  }
  EXPECT_NE(dot.find("cluster_X"), std::string::npos);
  EXPECT_NE(dot.find("cluster_Y"), std::string::npos);
  EXPECT_NE(dot.find("label=\"C\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"L\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"D\""), std::string::npos);
}

TEST(ParserPrecedence, MirrorsConventionalArithmetic) {
  sym::SymbolTable st;
  const auto p = st.pow2Parameter("P", "p");
  const auto i = st.index("I");
  const auto l = st.index("L");
  const auto j = st.index("J");
  const Expr P = Expr::pow2(Expr::symbol(p));
  // The paper's F3 subscript, parsed vs built.
  const Expr parsed = frontend::parseExpr("2*P*I + 2^(L-1)*J", st);
  const Expr built = c(2) * P * Expr::symbol(i) +
                     Expr::pow2(Expr::symbol(l) - c(1)) * Expr::symbol(j);
  EXPECT_EQ(parsed, built);
  // ^ binds tighter than unary minus and *.
  EXPECT_EQ(frontend::parseExpr("-2^L", st), -Expr::pow2(Expr::symbol(l)));
  EXPECT_EQ(frontend::parseExpr("3*2^L", st), c(3) * Expr::pow2(Expr::symbol(l)));
  // 2^L-1 is (2^L) - 1, not 2^(L-1).
  EXPECT_EQ(frontend::parseExpr("2^L-1", st), Expr::pow2(Expr::symbol(l)) - c(1));
}

TEST(Simulate, SequentialTimeCountsEveryAccessOnce) {
  const auto prog = codes::makeTFFT2();
  const auto params = codes::bindParams(prog, {{"P", 8}, {"Q", 8}});
  dsm::MachineParams machine;
  machine.processors = 4;
  const auto plan = dsm::ExecutionPlan::naiveBlock(prog, params, 4);
  const auto result = dsm::simulate(prog, params, machine, plan);
  double expected = 0.0;
  for (std::size_t k = 0; k < prog.phases().size(); ++k) {
    std::int64_t accesses = 0;
    reference::forEachRunAccess(
        prog, prog.phase(k), params,
        [&](const reference::ConcreteAccess&, const ir::Bindings&) { ++accesses; });
    expected += static_cast<double>(accesses) * prog.phase(k).workPerAccess() *
                machine.localAccess;
    EXPECT_EQ(result.phases[k].peTime.size(), 4u);
  }
  EXPECT_DOUBLE_EQ(result.sequentialTime(), expected);
}

TEST(Plan, PhasesWithoutIlpVariableGetGreedyChunks) {
  // An array-free phase (pure compute on a privatized scratch) still gets an
  // iteration distribution.
  ir::Program prog;
  prog.declareArray("A", c(64));
  prog.declareArray("S", c(64));
  {
    ir::PhaseBuilder b(prog, "main");
    b.doall("i", c(0), c(63));
    b.update("A", b.idx("i"));
    b.commit();
  }
  {
    ir::PhaseBuilder b(prog, "scratchonly");
    b.doall("i", c(0), c(63));
    b.write("S", b.idx("i"));
    b.read("S", b.idx("i"));
    b.privatize("S");
    b.commit();
  }
  prog.validate();
  driver::PipelineConfig config;
  config.processors = 4;
  config.simulateBaseline = false;
  const auto result = driver::analyzeAndSimulate(prog, config);
  ASSERT_EQ(result.plan.iteration.size(), 2u);
  EXPECT_GE(result.plan.iteration[1].chunk, 1);
  EXPECT_EQ(result.planned.phases[1].remoteAccesses, 0);
}

}  // namespace
}  // namespace ad
