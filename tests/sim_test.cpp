// Serial trace replay: hand-computable locality counts, agreement with the
// DSM cost model and with the closed-form validator, and the Theorem-1/2
// cross-check on L and C edges.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "codes/suite.hpp"
#include "codes/tfft2.hpp"
#include "driver/pipeline.hpp"
#include "lcg/lcg.hpp"
#include "locality/symbolic_validate.hpp"
#include "sim/owner_map.hpp"
#include "sim/trace_sim.hpp"
#include "support/budget.hpp"

namespace ad::sim {
namespace {

/// Two-phase 3-point stencil on 8 elements — small enough to classify every
/// access by hand:
///
///   produce: doall i = 0..7   write A(i)
///   smooth:  doall i = 1..6   read A(i-1), A(i), A(i+1); write B(i)
ir::Program makeStencil() {
  ir::Program prog;
  const auto c = [](std::int64_t v) { return sym::Expr::constant(v); };
  prog.declareArray("A", c(8));
  prog.declareArray("B", c(8));
  {
    ir::PhaseBuilder b(prog, "produce");
    b.doall("i", c(0), c(7));
    b.write("A", b.idx("i"));
    b.commit();
  }
  {
    ir::PhaseBuilder b(prog, "smooth");
    b.doall("i", c(1), c(6));
    b.read("A", b.idx("i") - c(1));
    b.read("A", b.idx("i"));
    b.read("A", b.idx("i") + c(1));
    b.write("B", b.idx("i"));
    b.commit();
  }
  prog.validate();
  return prog;
}

/// BLOCK-CYCLIC(4) data + CYCLIC(4) iterations on 2 PEs, no halo.
dsm::ExecutionPlan stencilPlan(std::int64_t halo) {
  dsm::ExecutionPlan plan;
  plan.iteration = {dsm::IterationDistribution{4}, dsm::IterationDistribution{4}};
  plan.data["A"].assign(2, dsm::DataDistribution::blockCyclic(4));
  plan.data["B"].assign(2, dsm::DataDistribution::blockCyclic(4));
  plan.halo["A"] = {0, halo};
  plan.halo["B"] = {0, 0};
  return plan;
}

TEST(TraceSim, HandComputedStencilCounts) {
  // With CYCLIC(4) on H = 2, executor(i) = (i / 4) % 2 and A/B owners follow
  // the same BLOCK-CYCLIC(4) map: PE 0 owns [0,4), PE 1 owns [4,8).
  //
  //   produce (i = 0..7): every write A(i) lands on the executor's own block
  //     -> A: 8 local, 0 remote.
  //   smooth (i = 1..6), halo 0:
  //     A(i-1): i=4 reads addr 3 (owner 0, executor 1) -> remote; 5 local.
  //     A(i):   always the executor's own block           -> 6 local.
  //     A(i+1): i=3 reads addr 4 (owner 1, executor 0) -> remote; 5 local.
  //     B(i):   writes own block                          -> 6 local.
  //   -> smooth: A local 16, A remote 2 (16 bytes at 8 bytes/word), B local 6.
  const ir::Program prog = makeStencil();
  SimOptions opts;
  opts.processors = 2;
  const TraceResult r = simulateTrace(prog, {}, stencilPlan(0), opts);

  ASSERT_EQ(r.observed.phases.size(), 2u);
  EXPECT_EQ(r.totalAccesses, 8 + 18 + 6);
  const auto& produce = r.observed.phases[0];
  EXPECT_EQ(produce.arrays.at("A").local, 8);
  EXPECT_EQ(produce.arrays.at("A").remote, 0);
  const auto& smooth = r.observed.phases[1];
  EXPECT_EQ(smooth.arrays.at("A").local, 16);
  EXPECT_EQ(smooth.arrays.at("A").remote, 2);
  EXPECT_EQ(smooth.arrays.at("A").remoteBytes, 16);
  EXPECT_EQ(smooth.arrays.at("B").local, 6);
  EXPECT_EQ(smooth.arrays.at("B").remote, 0);
  // Same distribution in both phases: no global redistribution, no frontier.
  EXPECT_TRUE(r.observed.redistributions.empty());
}

TEST(TraceSim, HaloMakesBoundaryReadsLocalViaFrontierRefresh) {
  // A one-element replicated frontier (Theorem 1c) absorbs both boundary
  // reads; the cost appears as a frontier refresh event instead.
  const ir::Program prog = makeStencil();
  SimOptions opts;
  opts.processors = 2;
  const TraceResult r = simulateTrace(prog, {}, stencilPlan(1), opts);

  const auto& smooth = r.observed.phases[1];
  EXPECT_EQ(smooth.arrays.at("A").local, 18);
  EXPECT_EQ(smooth.arrays.at("A").remote, 0);
  ASSERT_EQ(r.observed.redistributions.size(), 1u);
  EXPECT_TRUE(r.observed.redistributions[0].frontier);
  // One interior block boundary, refreshed one element to each side.
  EXPECT_EQ(r.observed.redistributions[0].wordsMoved, 2);
}

TEST(TraceSim, DeterministicAcrossRuns) {
  const ir::Program prog = makeStencil();
  SimOptions opts;
  opts.processors = 2;
  const TraceResult a = simulateTrace(prog, {}, stencilPlan(0), opts);
  const TraceResult b = simulateTrace(prog, {}, stencilPlan(0), opts);
  ASSERT_EQ(a.observed.phases.size(), b.observed.phases.size());
  for (std::size_t k = 0; k < a.observed.phases.size(); ++k) {
    EXPECT_EQ(a.observed.phases[k].local(), b.observed.phases[k].local());
    EXPECT_EQ(a.observed.phases[k].remote(), b.observed.phases[k].remote());
  }
  EXPECT_EQ(a.totalAccesses, b.totalAccesses);
}

TEST(TraceSim, MatchesSerialSimulatorAcrossTheSuite) {
  // The closed-form cost model and the trace replay classify the same access
  // stream against the same plan — their per-phase local/remote tallies must
  // agree exactly.
  for (const auto& code : codes::benchmarkSuite()) {
    const ir::Program prog = code.build();
    driver::PipelineConfig config;
    config.params = codes::bindParams(prog, code.smallParams);
    config.processors = 4;
    config.simulateBaseline = false;
    config.validate = driver::ValidateMode::kTrace;
    const auto result = driver::analyzeAndSimulate(prog, config);
    ASSERT_TRUE(result.trace.has_value()) << code.name;
    ASSERT_EQ(result.planned.phases.size(), result.trace->observed.phases.size()) << code.name;
    for (std::size_t k = 0; k < result.planned.phases.size(); ++k) {
      EXPECT_EQ(result.planned.phases[k].localAccesses, result.trace->observed.phases[k].local())
          << code.name << " phase " << k;
      EXPECT_EQ(result.planned.phases[k].remoteAccesses, result.trace->observed.phases[k].remote())
          << code.name << " phase " << k;
    }
  }
}

class TraceSimSuite : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TraceSimSuite, ObservedTraceMatchesSymvalAtAllH) {
  // The whole ObservedTrace — per-phase per-array counts and bytes, every
  // redistribution and frontier event, in order — must equal the closed-form
  // validator's, under both binding classes.
  const codes::CodeInfo& info = codes::benchmarkSuite()[GetParam()];
  const ir::Program prog = info.build();
  for (const auto* byName : {&info.smallParams, &info.simParams}) {
    for (const std::int64_t processors : {1, 4, 8}) {
      driver::PipelineConfig config;
      config.params = codes::bindParams(prog, *byName);
      config.processors = processors;
      config.simulatePlan = false;
      config.simulateBaseline = false;
      const auto result = driver::analyzeAndSimulate(prog, config);
      SimOptions opts;
      opts.processors = processors;
      const TraceResult trace = simulateTrace(prog, config.params, result.plan, opts);
      loc::SymvalOptions symOpts;
      symOpts.processors = processors;
      const loc::SymbolicCounts symbolic =
          loc::symbolicTrace(prog, config.params, result.plan, symOpts);
      const auto diff = loc::describeTraceDifference(symbolic.observed, trace.observed);
      EXPECT_FALSE(diff.has_value())
          << info.name << (byName == &info.smallParams ? " small" : " sim") << " H=" << processors
          << ": " << *diff;
      EXPECT_EQ(trace.totalAccesses, symbolic.totalAccesses) << info.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, TraceSimSuite,
                         ::testing::Range<std::size_t>(0, codes::benchmarkSuite().size()),
                         [](const auto& i) { return codes::benchmarkSuite()[i.param].name; });

TEST(TraceSim, CancelAndDeadlineStopTheReplay) {
  // 64k accesses on one array: the replay polls every 4096 accesses, so a
  // fired token or a passed deadline ends it long before the last access.
  ir::Program prog;
  prog.declareArray("A", sym::Expr::constant(1 << 16));
  ir::PhaseBuilder b(prog, "sweep");
  b.doall("i", sym::Expr::constant(0), sym::Expr::constant((1 << 16) - 1));
  b.read("A", b.idx("i"));
  b.commit();
  prog.validate();
  dsm::ExecutionPlan plan;
  plan.iteration = {dsm::IterationDistribution{64}};
  plan.data["A"] = {dsm::DataDistribution::blockCyclic(64)};
  SimOptions opts;
  opts.processors = 4;
  {
    auto token = std::make_shared<std::atomic<bool>>(true);
    support::Budget budget(support::BudgetLimits{}, token);
    const support::BudgetScope scope(&budget);
    EXPECT_THROW((void)simulateTrace(prog, {}, plan, opts), CancelledError);
  }
  {
    support::Budget budget(support::BudgetLimits{.deadlineMs = 1});
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const support::BudgetScope scope(&budget);
    EXPECT_THROW((void)simulateTrace(prog, {}, plan, opts), DeadlineError);
  }
  EXPECT_EQ(simulateTrace(prog, {}, plan, opts).totalAccesses, 1 << 16);
}

TEST(ValidateLocality, LEdgeAgreesUnderTheDerivedPlan) {
  // The stencil's A edge (produce -> smooth) is L: with the derived plan the
  // trace must be communication-free on it.
  const ir::Program prog = makeStencil();
  driver::PipelineConfig config;
  config.processors = 2;
  config.simulateBaseline = false;
  config.validate = driver::ValidateMode::kTrace;
  const auto result = driver::analyzeAndSimulate(prog, config);
  ASSERT_TRUE(result.localityCheck.has_value());
  EXPECT_TRUE(result.localityCheck->ok()) << result.localityCheck->str();
  bool sawLocal = false;
  for (const auto& e : result.localityCheck->edges) {
    sawLocal = sawLocal || (e.label == loc::EdgeLabel::kLocal && e.array == "A");
  }
  EXPECT_TRUE(sawLocal);
}

TEST(ValidateLocality, MismatchedDistributionsUnderAnLEdgeAreFlagged) {
  // Sabotage the plan: change A's distribution between the phases. The trace
  // then observes a global redistribution under an L edge — the validator
  // must disagree.
  const ir::Program prog = makeStencil();
  const auto lcgGraph = lcg::buildLCG(prog, {}, 2);
  dsm::ExecutionPlan plan = stencilPlan(0);
  plan.data["A"][1] = dsm::DataDistribution::blockCyclic(2);

  SimOptions opts;
  opts.processors = 2;
  const TraceResult r = simulateTrace(prog, {}, plan, opts);
  EXPECT_FALSE(r.observed.redistributions.empty());

  const auto report = dsm::validateLocality(lcgGraph, plan, r.observed, {}, 2);
  EXPECT_FALSE(report.ok());
  bool flagged = false;
  for (const auto& e : report.edges) {
    flagged = flagged || (!e.agrees && e.label == loc::EdgeLabel::kLocal && e.array == "A");
  }
  EXPECT_TRUE(flagged) << report.str();
}

TEST(ValidateLocality, CEdgesOfTFFT2CarryObservedCommunication) {
  // TFFT2's two communication points (the X transposes) are C edges; the
  // trace must observe redistributed words there, and the whole LCG must
  // validate — including the folded-storage entry on Y, reported as a
  // storage event rather than Theorem-2 communication.
  const ir::Program prog = codes::makeTFFT2();
  driver::PipelineConfig config;
  config.params = codes::bindParams(prog, {{"P", 16}, {"Q", 16}});
  config.processors = 4;
  config.simulateBaseline = false;
  config.validate = driver::ValidateMode::kTrace;
  const auto result = driver::analyzeAndSimulate(prog, config);
  ASSERT_TRUE(result.localityCheck.has_value());
  EXPECT_TRUE(result.localityCheck->ok()) << result.localityCheck->str();

  std::int64_t commEdgesWithTraffic = 0;
  std::int64_t storageEvents = 0;
  for (const auto& e : result.localityCheck->edges) {
    if (e.label == loc::EdgeLabel::kComm && e.redistributedWords > 0) ++commEdgesWithTraffic;
    if (e.storageWords > 0) ++storageEvents;
  }
  EXPECT_GE(commEdgesWithTraffic, 1);
  EXPECT_GE(storageEvents, 1);
}

TEST(OwnerMap, MatchesArithmeticOwnersIncludingFoldedForm) {
  // The table is filled one constant-owner run (ownerRunEnd) at a time, so a
  // wrong run end would show here as a wrong owner.
  const struct {
    dsm::DataDistribution dist;
    std::int64_t size;
    std::int64_t processors;
  } cases[] = {
      {dsm::DataDistribution::foldedBlockCyclic(4, 32), 70, 3},
      {dsm::DataDistribution::blockCyclic(1), 70, 3},    // BLOCK-CYCLIC(1)
      {dsm::DataDistribution::blockCyclic(8), 70, 3},    // 8 does not divide 70
      {dsm::DataDistribution::blockCyclic(100), 70, 3},  // one block past the end
      {dsm::DataDistribution::blockCyclic(4), 70, 1},    // H = 1
      {dsm::DataDistribution::foldedBlockCyclic(3, 20), 45, 1},
      {dsm::DataDistribution::replicated(), 70, 3},      // no table
  };
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const auto& k = cases[i];
    const std::string label = "case " + std::to_string(i);
    const OwnerMap map(k.dist, k.size, k.processors);
    ASSERT_EQ(map.hasOwner(), k.dist.hasOwner()) << label;
    if (map.hasOwner()) {
      for (std::int64_t a = 0; a < k.size + 20; ++a) {  // past size(): arithmetic fallback
        EXPECT_EQ(map.owner(a), k.dist.owner(a, k.processors)) << label << " addr " << a;
      }
    }
    for (const std::int64_t halo : {0, 1, 3}) {
      for (std::int64_t pe = 0; pe < k.processors; ++pe) {
        for (std::int64_t a = 0; a < k.size; ++a) {
          EXPECT_EQ(map.isLocal(a, pe, halo), k.dist.isLocal(a, pe, k.processors, halo))
              << label << " addr " << a << " pe " << pe << " halo " << halo;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ad::sim
