// Data-flow validation: the derived plans must be value-correct, not just
// local — every locally-served read observes the sequential value.
#include <gtest/gtest.h>

#include "codes/suite.hpp"
#include "driver/pipeline.hpp"
#include "reference_oracles.hpp"

namespace ad::dsm {
namespace {

TEST(ValidateDataFlow, DerivedPlansAreValueCorrectAcrossTheSuite) {
  for (const auto& code : codes::benchmarkSuite()) {
    const ir::Program prog = code.build();
    driver::PipelineConfig config;
    config.params = codes::bindParams(prog, code.smallParams);
    config.processors = 4;
    config.simulateBaseline = false;
    const auto result = driver::analyzeAndSimulate(prog, config);
    const auto report = reference::validateDataFlow(prog, config.params, result.plan, 4);
    EXPECT_GT(report.readsChecked, 0) << code.name;
    EXPECT_TRUE(report.ok()) << code.name << ": " << report.staleReads << " stale reads; "
                             << (report.diagnostics.empty() ? "" : report.diagnostics[0]);
  }
}

TEST(ValidateDataFlow, NaivePlansAreAlsoCorrectJustSlow) {
  // The BLOCK baseline serves stencil neighbours remotely — correct (gets
  // observe the owner) but expensive. The validator must not flag it.
  const ir::Program prog = codes::makeSwim();
  const auto params = codes::bindParams(prog, {{"N", 32}});
  const auto plan = ExecutionPlan::naiveBlock(prog, params, 4);
  const auto report = reference::validateDataFlow(prog, params, plan, 4);
  EXPECT_TRUE(report.ok());
}

TEST(ValidateDataFlow, LoopCarriedFlowDependenceUnderHalosIsCaught) {
  // A Gauss-Seidel-style nest mislabeled DOALL: iteration i reads A(i-1),
  // which iteration i-1 *writes in the same phase*. Pre-phase halo refreshes
  // cannot keep the replicas coherent with in-phase writes, so the validator
  // flags stale reads at the chunk boundaries — this is exactly the bug it
  // caught in our first (in-place) mgrid smoother.
  ir::Program prog;
  const auto n = prog.symbols().parameter("N");
  const sym::Expr N = sym::Expr::symbol(n);
  const auto c = [](std::int64_t v) { return sym::Expr::constant(v); };
  prog.declareArray("A", N + c(1));
  {
    ir::PhaseBuilder b(prog, "init");
    b.doall("i", c(0), N);
    b.write("A", b.idx("i"));
    b.commit();
  }
  {
    ir::PhaseBuilder b(prog, "seidel");
    b.doall("i", c(1), N);
    b.read("A", b.idx("i") - c(1));
    b.write("A", b.idx("i"));
    b.commit();
  }
  prog.validate();
  const ir::Bindings params{{n, 32}};

  ExecutionPlan plan = ExecutionPlan::naiveBlock(prog, params, 4);
  // Align blocks with the iteration chunks so boundary reads are halo-served.
  plan.data["A"].assign(2, DataDistribution::blockCyclic(8));
  for (auto& it : plan.iteration) it.chunk = 8;
  plan.halo["A"] = {0, 1};  // one-element halo for the i-1 reads
  const auto report = reference::validateDataFlow(prog, params, plan, 4);
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.staleReads, 0);
  ASSERT_FALSE(report.diagnostics.empty());
  EXPECT_NE(report.diagnostics[0].find("stale read"), std::string::npos);
}

TEST(ValidateDataFlow, FrontierRefreshKeepsStencilHalosFresh) {
  // The legal stencil form (read old array, write a different one): with the
  // halo granted and the frontier refresh rule, every read is fresh.
  ir::Program prog;
  const auto n = prog.symbols().parameter("N");
  const sym::Expr N = sym::Expr::symbol(n);
  const auto c = [](std::int64_t v) { return sym::Expr::constant(v); };
  prog.declareArray("A", N);
  prog.declareArray("B", N);
  {
    ir::PhaseBuilder b(prog, "write");
    b.doall("i", c(0), N - c(1));
    b.write("A", b.idx("i"));
    b.commit();
  }
  {
    ir::PhaseBuilder b(prog, "stencilread");
    b.doall("i", c(0), N - c(2));
    b.read("A", b.idx("i"));
    b.read("A", b.idx("i") + c(1));
    b.write("B", b.idx("i"));
    b.commit();
  }
  prog.validate();
  const ir::Bindings params{{n, 32}};

  ExecutionPlan plan = ExecutionPlan::naiveBlock(prog, params, 4);
  plan.halo["A"] = {0, 1};
  const auto report = reference::validateDataFlow(prog, params, plan, 4);
  EXPECT_TRUE(report.ok()) << (report.diagnostics.empty() ? "" : report.diagnostics[0]);
  EXPECT_GT(report.readsChecked, 0);
}

TEST(ValidateDataFlow, SkippedRedistributionIntoAPartialWriterIsCaught) {
  // A redistribution whose next user only writes is skipped (dead values are
  // re-allocated, not copied) on the assumption that the writer produces the
  // whole array. This one writes half of it, so the other half is stale at
  // its new owners, and the later full read must expose that: the validator
  // copies only what dsm::redistributes admits.
  ir::Program prog;
  const auto c = [](std::int64_t v) { return sym::Expr::constant(v); };
  prog.declareArray("A", c(8));
  prog.declareArray("B", c(8));
  {
    ir::PhaseBuilder b(prog, "init");
    b.doall("i", c(0), c(7));
    b.write("A", b.idx("i"));
    b.commit();
  }
  {
    ir::PhaseBuilder b(prog, "partial");
    b.doall("i", c(0), c(3));
    b.write("A", b.idx("i"));
    b.commit();
  }
  {
    ir::PhaseBuilder b(prog, "use");
    b.doall("i", c(0), c(7));
    b.read("A", b.idx("i"));
    b.write("B", b.idx("i"));
    b.commit();
  }
  prog.validate();

  ExecutionPlan plan = ExecutionPlan::naiveBlock(prog, {}, 2);
  // BLOCK for init, CYCLIC(1) from the partial writer on, scheduled to match.
  plan.data["A"] = {DataDistribution::blockCyclic(4), DataDistribution::blockCyclic(1),
                    DataDistribution::blockCyclic(1)};
  plan.data["B"].assign(3, DataDistribution::blockCyclic(1));
  plan.iteration = {IterationDistribution{4}, IterationDistribution{1}, IterationDistribution{1}};
  ASSERT_FALSE(redistributes(prog, plan, "A", 1));
  const auto report = reference::validateDataFlow(prog, {}, plan, 2);
  // A(5) and A(7) move from PE 1 to PE 1 (fresh); A(4) and A(6) from PE 1 to
  // PE 0, which never received them.
  EXPECT_EQ(report.staleReads, 2);
}

}  // namespace
}  // namespace ad::dsm
