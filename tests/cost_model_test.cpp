// The closed-form DSM cost model (dsm::simulate) against the enumerating
// reference (tests/reference_oracles): field-by-field equality — counts,
// event order and every time at %.9g — over the ten-code suite, the N-sweep
// requests and a fractional-work program. Also pins the model's event order
// and its fallback path: an uncollapsible region is enumerated exactly,
// without a degradation-ledger entry and without charging the budget.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../bench/workload_gen.hpp"
#include "codes/suite.hpp"
#include "codes/tfft2.hpp"
#include "driver/pipeline.hpp"
#include "dsm/access_count.hpp"
#include "dsm/machine.hpp"
#include "frontend/parser.hpp"
#include "locality/symbolic_validate.hpp"
#include "obs/obs.hpp"
#include "reference_oracles.hpp"
#include "support/budget.hpp"
#include "support/fault.hpp"

namespace ad {
namespace {

/// `v` to `digits` significant digits (17 tells every double apart).
std::string fmt(double v, int digits) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return buf;
}

void expectSameResult(const dsm::SimulationResult& got, const dsm::SimulationResult& want,
                      const std::string& what, int digits = 9) {
  const auto g9 = [digits](double v) { return fmt(v, digits); };
  ASSERT_EQ(got.phases.size(), want.phases.size()) << what;
  for (std::size_t k = 0; k < want.phases.size(); ++k) {
    const auto& g = got.phases[k];
    const auto& w = want.phases[k];
    const std::string at = what + " phase " + w.phase;
    EXPECT_EQ(g.phase, w.phase) << at;
    EXPECT_EQ(g.localAccesses, w.localAccesses) << at;
    EXPECT_EQ(g.remoteAccesses, w.remoteAccesses) << at;
    EXPECT_EQ(g9(g.time), g9(w.time)) << at;
    EXPECT_EQ(g9(g.seqTime), g9(w.seqTime)) << at;
    ASSERT_EQ(g.peTime.size(), w.peTime.size()) << at;
    for (std::size_t p = 0; p < w.peTime.size(); ++p) {
      EXPECT_EQ(g9(g.peTime[p]), g9(w.peTime[p])) << at << " PE " << p;
    }
  }
  ASSERT_EQ(got.redistributions.size(), want.redistributions.size()) << what;
  for (std::size_t i = 0; i < want.redistributions.size(); ++i) {
    const auto& g = got.redistributions[i];
    const auto& w = want.redistributions[i];
    const std::string at = what + " event " + std::to_string(i) + " (" + w.array + ")";
    EXPECT_EQ(g.array, w.array) << at;
    EXPECT_EQ(g.beforePhase, w.beforePhase) << at;
    EXPECT_EQ(g.frontier, w.frontier) << at;
    EXPECT_EQ(g.wordsMoved, w.wordsMoved) << at;
    EXPECT_EQ(g.messages, w.messages) << at;
    EXPECT_EQ(g9(g.time), g9(w.time)) << at;
  }
}

/// The plan the pipeline derives for one request (front half only).
dsm::ExecutionPlan derivedPlan(const ir::Program& prog, const ir::Bindings& params,
                               std::int64_t processors) {
  driver::PipelineConfig config;
  config.params = params;
  config.processors = processors;
  config.simulatePlan = false;
  config.simulateBaseline = false;
  return driver::analyzeAndSimulate(prog, config).plan;
}

/// Closed form == reference under the derived plan and under naiveBlock.
void expectModelMatchesReference(const ir::Program& prog, const ir::Bindings& params,
                                 std::int64_t processors, const std::string& what) {
  dsm::MachineParams machine;
  machine.processors = processors;
  const std::string at = what + " H=" + std::to_string(processors);
  const dsm::ExecutionPlan plan = derivedPlan(prog, params, processors);
  expectSameResult(dsm::simulate(prog, params, machine, plan),
                   reference::simulate(prog, params, machine, plan), at + " (derived plan)");
  const auto naive = dsm::ExecutionPlan::naiveBlock(prog, params, processors);
  expectSameResult(dsm::simulate(prog, params, machine, naive),
                   reference::simulate(prog, params, machine, naive), at + " (naive BLOCK)");
}

// --- The ten-code suite -----------------------------------------------------

class CostModelSuite : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CostModelSuite, ClosedFormMatchesEnumeration) {
  const codes::CodeInfo& info = codes::benchmarkSuite()[GetParam()];
  const ir::Program prog = info.build();
  for (const auto* params : {&info.smallParams, &info.simParams}) {
    const std::string what =
        info.name + (params == &info.smallParams ? " smallParams" : " simParams");
    for (const std::int64_t processors : {1, 4, 8}) {
      expectModelMatchesReference(prog, codes::bindParams(prog, *params), processors, what);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, CostModelSuite,
                         ::testing::Range<std::size_t>(0, codes::benchmarkSuite().size()),
                         [](const auto& i) { return codes::benchmarkSuite()[i.param].name; });

// --- One count per plan ----------------------------------------------------

void expectSameCounts(const loc::SymbolicCounts& got, const loc::SymbolicCounts& want,
                      const std::string& what) {
  EXPECT_EQ(got.processors, want.processors) << what;
  EXPECT_EQ(got.totalAccesses, want.totalAccesses) << what;
  EXPECT_EQ(got.closedFormRegions, want.closedFormRegions) << what;
  EXPECT_EQ(got.enumeratedRegions, want.enumeratedRegions) << what;
  const auto diff = loc::describeTraceDifference(got.observed, want.observed);
  EXPECT_FALSE(diff.has_value()) << what << ": " << *diff;
}

/// A simulated, symbolically validated request: the cost model and the
/// validator share one count of the derived plan.
driver::PipelineConfig sharedConfig(const ir::Bindings& params, std::int64_t processors) {
  driver::PipelineConfig config;
  config.params = params;
  config.processors = processors;
  config.simulateBaseline = false;
  config.validate = driver::ValidateMode::kSymbolic;
  return config;
}

TEST_P(CostModelSuite, SharedCountMatchesSeparatePasses) {
  const codes::CodeInfo& info = codes::benchmarkSuite()[GetParam()];
  const ir::Program prog = info.build();
  obs::Counter& passes = obs::metrics().counter("ad.dsm.count_passes");
  for (const auto* bound : {&info.smallParams, &info.simParams}) {
    const ir::Bindings params = codes::bindParams(prog, *bound);
    for (const std::int64_t processors : {1, 4, 8, 64}) {
      const std::string what = info.name +
                               (bound == &info.smallParams ? " smallParams" : " simParams") +
                               " H=" + std::to_string(processors);
      const std::int64_t before = passes.value();
      const auto result = driver::analyzeAndSimulate(prog, sharedConfig(params, processors));
      EXPECT_EQ(passes.value() - before, 1) << what;
      // Against standalone dsm::simulate and loc::symbolicTrace on its plan.
      dsm::MachineParams machine;
      machine.processors = processors;
      expectSameResult(result.planned, dsm::simulate(prog, params, machine, result.plan), what,
                       17);
      loc::SymvalOptions opts;
      opts.processors = processors;
      ASSERT_TRUE(result.symbolic.has_value()) << what;
      expectSameCounts(*result.symbolic, loc::symbolicTrace(prog, params, result.plan, opts),
                       what);
    }
  }
}

/// The degradation ledgers of two runs, event by event.
void expectSameLedger(const driver::PipelineResult& got, const driver::PipelineResult& want) {
  ASSERT_EQ(got.degradation.size(), want.degradation.size());
  for (std::size_t i = 0; i < want.degradation.size(); ++i) {
    EXPECT_EQ(got.degradation[i].str(), want.degradation[i].str()) << "event " << i;
  }
}

TEST(SharedCount, BudgetExhaustedMidCountMatchesSeparatePasses) {
  // Counting never charges the prover budget: a request takes the same steps
  // with or without the count, and a budget that runs out before the count
  // leaves it closed form, in the shared pass and the validator's own alike.
  const ir::Program prog = codes::makeTFFT2();
  const ir::Bindings params = codes::bindParams(prog, {{"P", 16}, {"Q", 16}});
  driver::PipelineConfig shared = sharedConfig(params, 8);
  driver::PipelineConfig symvalOnly = shared;
  symvalOnly.simulatePlan = false;
  driver::PipelineConfig frontOnly = symvalOnly;
  frontOnly.validate = driver::ValidateMode::kNone;

  // Steps of each request, on warm proof memos.
  (void)driver::analyzeAndSimulate(prog, symvalOnly);
  const auto stepsOf = [&](const driver::PipelineConfig& config) {
    support::Budget budget(support::BudgetLimits{});
    support::BudgetScope scope(&budget);
    (void)driver::analyzeAndSimulate(prog, config);
    return budget.stepsUsed();
  };
  const std::int64_t front = stepsOf(frontOnly);
  ASSERT_GT(front, 2);
  EXPECT_EQ(stepsOf(symvalOnly), front);
  EXPECT_EQ(stepsOf(shared), front);
  shared.budget.proverSteps = symvalOnly.budget.proverSteps = front / 2;

  const auto one = driver::analyzeAndSimulate(prog, shared);
  const auto two = driver::analyzeAndSimulate(prog, symvalOnly);
  ASSERT_TRUE(one.symbolic && two.symbolic);
  EXPECT_EQ(one.symbolic->enumeratedRegions, 0);
  expectSameCounts(*one.symbolic, *two.symbolic, "exhausted budget");
  expectSameLedger(one, two);
  ASSERT_FALSE(one.degradation.empty());
  for (const auto& event : one.degradation) {
    EXPECT_EQ(event.cause, "budget.steps") << event.str();
    EXPECT_NE(event.stage, "symval.region") << event.str();
  }
  dsm::MachineParams machine;
  machine.processors = 8;
  expectSameResult(one.planned, dsm::simulate(prog, params, machine, one.plan),
                   "exhausted budget", 17);
}

class SharedCountFault : public ::testing::Test {
 protected:
  void TearDown() override { support::FaultInjector::global().clear(); }
};

TEST_F(SharedCountFault, RegionFaultsMatchSeparatePasses) {
  const ir::Program prog = codes::makeTFFT2();
  const ir::Bindings params = codes::bindParams(prog, {{"P", 16}, {"Q", 16}});
  const driver::PipelineConfig shared = sharedConfig(params, 8);
  driver::PipelineConfig symvalOnly = shared;
  symvalOnly.simulatePlan = false;

  // Re-configuring restarts the hit count, so both runs see the same firings.
  auto& faults = support::FaultInjector::global();
  ASSERT_TRUE(faults.configure("symval.region%2:2").isOk());
  const auto one = driver::analyzeAndSimulate(prog, shared);
  ASSERT_TRUE(faults.configure("symval.region%2:2").isOk());
  const auto two = driver::analyzeAndSimulate(prog, symvalOnly);
  faults.clear();

  ASSERT_TRUE(one.symbolic && two.symbolic);
  EXPECT_GT(one.symbolic->enumeratedRegions, 0);
  expectSameCounts(*one.symbolic, *two.symbolic, "symval.region%2");
  expectSameLedger(one, two);
  ASSERT_FALSE(one.degradation.empty());
  for (const auto& e : one.degradation) EXPECT_EQ(e.cause, "fault") << e.str();
  dsm::MachineParams machine;
  machine.processors = 8;
  expectSameResult(one.planned, dsm::simulate(prog, params, machine, one.plan),
                   "symval.region%2", 17);
}

// --- The N-sweep requests ---------------------------------------------------

/// The generated stencil of the N-sweep workload: family 4 (five-point
/// star) or 5 (stride-2 gather), variant 1 — three phases over N*N arrays,
/// phase k reading Ak through a rotated slice of the family's offsets.
std::string sweepStencil(std::size_t family) {
  const std::vector<std::string> offsets =
      family == 4 ? std::vector<std::string>{"N*i + j", "N*i + j - 1", "N*i + j + 1",
                                             "N*i - N + j", "N*i + N + j"}
                  : std::vector<std::string>{"N*i + 2*j", "N*i + 2*j + 1"};
  const std::size_t variant = 1;
  std::string src = "param N\n";
  for (int a = 0; a <= 3; ++a) src += "array A" + std::to_string(a) + "(N*N)\n";
  for (std::size_t k = 0; k < 3; ++k) {
    const std::size_t width = 1 + (variant + k) % offsets.size();
    src += "phase S" + std::to_string(k) + " {\n  doall i = 1, N - 2 {\n    do j = 1, N - 2 {\n";
    for (std::size_t o = 0; o <= width; ++o) {
      src += "      read A" + std::to_string(k) + "(" +
             offsets[(variant + k + o) % offsets.size()] + ")\n";
    }
    src += "      write A" + std::to_string(k + 1) + "(N*i + j)\n    }\n  }\n";
    if (k % 2 == 0) src += "  work 2.0\n";
    src += "}\n";
  }
  return src;
}

TEST(CostModel, MatchesEnumerationOnTheNSweepRequests) {
  const ir::Program tfft2 = codes::makeTFFT2();
  for (const std::int64_t pq : {32, 64}) {
    expectModelMatchesReference(tfft2, codes::bindParams(tfft2, {{"P", pq}, {"Q", pq}}), 64,
                                "tfft2 P=Q=" + std::to_string(pq));
  }
  for (const std::size_t family : {4u, 5u}) {
    const ir::Program prog = frontend::parseProgram(sweepStencil(family));
    for (const std::int64_t n : {64, 128, 256}) {
      expectModelMatchesReference(prog, codes::bindParams(prog, {{"N", n}}), 16,
                                  "family " + std::to_string(family) + " N=" +
                                      std::to_string(n));
    }
  }
}

// --- The counting core against the access-by-access tallies -----------------

/// No reference of `got` may have fallen back to enumeration, or with
/// `fellBack` every one must have.
void expectSameTallies(const std::vector<dsm::PhaseTally>& got,
                       const std::vector<dsm::PhaseTally>& want, const std::string& what,
                       bool fellBack = false) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t k = 0; k < want.size(); ++k) {
    std::int64_t refs = 0;
    for (const dsm::ArrayTally& a : want[k].arrays) refs += a.refs;
    EXPECT_EQ(got[k].enumeratedRefs(), fellBack ? refs : 0) << what << " phase " << k;
    ASSERT_EQ(got[k].arrays.size(), want[k].arrays.size()) << what << " phase " << k;
    for (std::size_t i = 0; i < want[k].arrays.size(); ++i) {
      const dsm::ArrayTally& g = got[k].arrays[i];
      const dsm::ArrayTally& w = want[k].arrays[i];
      const std::string at = what + " phase " + std::to_string(k) + " array " + w.array;
      EXPECT_EQ(g.array, w.array) << at;
      EXPECT_EQ(g.refs, w.refs) << at;
      EXPECT_EQ(g.counts.local, w.counts.local) << at;
      EXPECT_EQ(g.counts.remote, w.counts.remote) << at;
      EXPECT_EQ(g.counts.remoteBytes, w.counts.remoteBytes) << at;
      EXPECT_EQ(g.peAccesses, w.peAccesses) << at;
      EXPECT_EQ(g.peRemote, w.peRemote) << at;
    }
  }
}

/// dsm::countPlan's tallies and the ad.dsm.count_runs it added.
std::pair<std::vector<dsm::PhaseTally>, std::int64_t> countWithRuns(
    const ir::Program& prog, const ir::Bindings& params, const dsm::ExecutionPlan& plan,
    std::int64_t processors) {
  obs::Counter& runs = obs::metrics().counter("ad.dsm.count_runs");
  const std::int64_t before = runs.value();
  auto tallies = dsm::countPlan(prog, params, plan, processors).tallies;
  return {std::move(tallies), runs.value() - before};
}

/// xorshift64*: deterministic and seed-stable across platforms.
std::uint64_t nextRand(std::uint64_t& state) {
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545F4914F6CDD1DULL;
}

TEST(CountingCore, FoldedAndBlockCyclicDoallsMatchTheAccessByAccessTallies) {
  // Iteration i of `doall i = lo, lo + trip - 1` reads A(base + shift*i +
  // stride*j) for j < width through a halo and writes B(baseB + shiftB*i).
  // Folds even and odd, trips below a fold and past it and past block * H,
  // tails wide enough to straddle reflection points.
  std::uint64_t rng = 0xF01D5E6;
  const auto below = [&rng](std::int64_t n) {
    return static_cast<std::int64_t>(nextRand(rng) % static_cast<std::uint64_t>(n));
  };
  const auto pick = [&below](std::initializer_list<std::int64_t> values) {
    return *(values.begin() + below(static_cast<std::int64_t>(values.size())));
  };
  const auto c = [](std::int64_t v) { return sym::Expr::constant(v); };
  for (int iter = 0; iter < 300; ++iter) {
    const std::int64_t H = pick({1, 2, 3, 4, 8});
    const std::int64_t block = 1 + below(4);
    const std::int64_t period = block * H;
    const std::int64_t fold = below(2) == 0
                                  ? 1 + below(60)
                                  : std::max<std::int64_t>(1, period * (1 + below(4)) + pick({-1, 0, 1}));
    const bool folded = below(4) != 0;
    const std::int64_t halo = pick({0, 0, 1, 2, 5});
    const std::int64_t chunk = pick({1, 1, 2, 3, 5});
    const std::int64_t lo = pick({0, 0, 1, 3, 7});
    const std::int64_t shift = pick({0, 1, -1, 2, -2, 3, -5, period, fold, fold + 1, 1 - fold});
    const std::int64_t trip = 1 + below(3 * std::max(fold, period) + 10);
    const std::int64_t width = pick({1, 1, 1, 2, 3, 6});
    const std::int64_t stride = pick({1, 1, 2, 3});
    const std::int64_t shiftB = pick({1, -1, 2});
    const std::int64_t last = lo + trip - 1;
    const std::int64_t base = std::max<std::int64_t>(0, -shift * last) + below(2 * fold + 1);
    const std::int64_t baseB = std::max<std::int64_t>(0, -shiftB * last);

    ir::Program prog;
    prog.declareArray("A", c(base + std::abs(shift) * (last + 1) + stride * width));
    prog.declareArray("B", c(baseB + std::abs(shiftB) * (last + 1)));
    ir::PhaseBuilder b(prog, "F");
    b.doall("i", c(lo), c(last));
    b.loop("j", c(0), c(width - 1));
    b.read("A", c(base) + c(shift) * b.idx("i") + c(stride) * b.idx("j"));
    b.write("B", c(baseB) + c(shiftB) * b.idx("i"));
    b.commit();
    prog.validate();

    dsm::ExecutionPlan plan;
    plan.iteration = {dsm::IterationDistribution{chunk}};
    plan.data["A"] = {folded ? dsm::DataDistribution::foldedBlockCyclic(block, fold)
                             : dsm::DataDistribution::blockCyclic(block)};
    plan.data["B"] = {below(2) == 0 ? dsm::DataDistribution::foldedBlockCyclic(1, fold)
                                    : dsm::DataDistribution::blockCyclic(1 + below(3))};
    plan.halo["A"] = {halo};

    const std::string what =
        "case " + std::to_string(iter) + ": H=" + std::to_string(H) + " block=" +
        std::to_string(block) + (folded ? " fold=" + std::to_string(fold) : " block-cyclic") +
        " halo=" + std::to_string(halo) + " chunk=" + std::to_string(chunk) + " lo=" +
        std::to_string(lo) + " trip=" + std::to_string(trip) + " shift=" +
        std::to_string(shift) + " width=" + std::to_string(width) + " stride=" +
        std::to_string(stride) + " base=" + std::to_string(base);
    expectSameTallies(dsm::countPlan(prog, {}, plan, H).tallies,
                      reference::countAccesses(prog, {}, plan, H), what);
  }
}

/// `doall i = 0, trip - 1 { do j = 0, width - 1 { read A(i + j) } }` over
/// A FOLDED(block, fold) on four processors, CYCLIC(1).
std::pair<ir::Program, dsm::ExecutionPlan> foldedSweep(std::int64_t trip, std::int64_t width,
                                                       std::int64_t block, std::int64_t fold) {
  const auto c = [](std::int64_t v) { return sym::Expr::constant(v); };
  ir::Program prog;
  prog.declareArray("A", c(trip + width));
  ir::PhaseBuilder b(prog, "F");
  b.doall("i", c(0), c(trip - 1));
  b.loop("j", c(0), c(width - 1));
  b.read("A", b.idx("i") + b.idx("j"));
  b.commit();
  prog.validate();
  dsm::ExecutionPlan plan;
  plan.iteration = {dsm::IterationDistribution{1}};
  plan.data["A"] = {dsm::DataDistribution::foldedBlockCyclic(block, fold)};
  return {std::move(prog), std::move(plan)};
}

TEST(CountingCore, TripCountsThatOverflowThrowInsteadOfCountingZero) {
  // With N = 2^62, `do j = 0 - N, N - 1` and `doall i = 0 - N, N - 1` run
  // 2^63 iterations, one more than int64 holds: the trip count throws
  // rather than wrapping negative and counting the loop as empty.
  const auto c = [](std::int64_t v) { return sym::Expr::constant(v); };
  const auto expectOverflow = [](const auto& run, const std::string& what) {
    try {
      run();
      ADD_FAILURE() << what << " did not throw";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("integer overflow"), std::string::npos) << what;
    }
  };
  for (const bool parallel : {false, true}) {
    ir::Program prog;
    const sym::Expr n = sym::Expr::symbol(prog.symbols().parameter("N"));
    prog.declareArray("A", c(1));
    ir::PhaseBuilder b(prog, parallel ? "doall" : "do");
    if (parallel) {
      b.doall("i", c(0) - n, n - c(1));
    } else {
      b.loop("j", c(0) - n, n - c(1));
    }
    b.read("A", c(0));
    b.commit();
    prog.validate();
    const ir::Bindings params = {{*prog.symbols().lookup("N"), std::int64_t{1} << 62}};
    dsm::ExecutionPlan plan;
    plan.iteration = {dsm::IterationDistribution{1}};
    plan.data["A"] = {dsm::DataDistribution::blockCyclic(1)};
    const std::string what = parallel ? "doall" : "do";
    expectOverflow([&] { (void)dsm::countPlan(prog, params, plan, 4); }, what);
    if (parallel) {
      expectOverflow([&] { (void)ir::parallelTripCount(prog.phase(0), params); }, what);
    } else {
      (void)dsm::ExecutionPlan::naiveBlock(prog, params, 4);  // no DOALL: one trip
    }
  }
}

TEST(CountingCore, MirrorSegmentsCountOneBlockCyclicPeriodPerPiece) {
  // Addresses 0..2047 stay on the ascending piece [0, 2048] of fold 4096:
  // one segment, whose locality repeats every block * H = 4 iterations,
  // so 4 runs. Whole fold periods would take lcm(4, 4096) = 4096
  // iterations, capped at the trip: one run per iteration, 2048.
  const auto [prog, plan] = foldedSweep(2048, 1, 1, 4096);
  const auto [tallies, runs] = countWithRuns(prog, {}, plan, 4);
  expectSameTallies(tallies, reference::countAccesses(prog, {}, plan, 4), "one piece");
  EXPECT_EQ(runs, 4);
}

TEST(CountingCore, WideTailOverALargeFoldStaysBoundedUnderASmallBudget) {
  // Each iteration's tail spans more than half the fold, so every iteration
  // straddles a reflection point: past the segment cap, the loop is counted
  // by whole fold periods, one run per iteration of the fold.
  constexpr std::int64_t kFold = 1024;
  const auto [prog, plan] = foldedSweep(kFold, kFold / 2 + 2, 1, kFold);
  const auto want = reference::countAccesses(prog, {}, plan, 4);
  const auto [tallies, runs] = countWithRuns(prog, {}, plan, 4);
  expectSameTallies(tallies, want, "wide tail");
  EXPECT_EQ(runs, kFold);

  // Counting never charges the prover budget: under a small one the loop is
  // still counted in closed form, with the same runs.
  {
    support::BudgetLimits limits;
    limits.proverSteps = 50;
    support::Budget budget(limits);
    support::BudgetScope scope(&budget);
    const auto [starved, starvedRuns] = countWithRuns(prog, {}, plan, 4);
    expectSameTallies(starved, want, "wide tail, small budget");
    EXPECT_EQ(starvedRuns, kFold);
    EXPECT_EQ(budget.stepsUsed(), 0);
  }
  // A fired cancellation token stops a large one within one poll period.
  const auto [large, largePlan] = foldedSweep(1 << 20, (1 << 19) + 2, 1 << 16, 1 << 20);
  auto token = std::make_shared<std::atomic<bool>>(true);
  support::Budget budget(support::BudgetLimits{}, token);
  support::BudgetScope scope(&budget);
  EXPECT_THROW((void)dsm::countPlan(large, {}, largePlan, 4), CancelledError);
}

TEST(CountingCore, MirrorSegmentsNeverCountMoreRunsOnTheNSweepRequests) {
  // Each N-sweep request counts its derived plan and the naive baseline.
  // `foldRuns` is what counting every folded loop by whole fold periods
  // takes (the counting core before mirror segments, measured per request);
  // TFFT2's derived plan folds CYCLIC(1) arrays and must take fewer.
  const auto check = [](const ir::Program& prog, const ir::Bindings& params,
                        std::int64_t processors, const std::string& what,
                        std::int64_t derivedFoldRuns, std::int64_t naiveFoldRuns,
                        bool savesRuns) {
    for (const bool naive : {false, true}) {
      const dsm::ExecutionPlan plan = naive
                                          ? dsm::ExecutionPlan::naiveBlock(prog, params, processors)
                                          : derivedPlan(prog, params, processors);
      const std::int64_t runs = countWithRuns(prog, params, plan, processors).second;
      const std::int64_t foldRuns = naive ? naiveFoldRuns : derivedFoldRuns;
      const std::string at = what + (naive ? " (naive BLOCK)" : " (derived plan)");
      EXPECT_LE(runs, foldRuns) << at;
      if (savesRuns && !naive) {
        EXPECT_LT(runs, foldRuns) << at;
      }
    }
  };
  const ir::Program tfft2 = codes::makeTFFT2();
  check(tfft2, codes::bindParams(tfft2, {{"P", 32}, {"Q", 32}}), 64, "tfft2 P=Q=32", 4928, 1344,
        true);
  check(tfft2, codes::bindParams(tfft2, {{"P", 64}, {"Q", 64}}), 64, "tfft2 P=Q=64", 17792, 1920,
        true);
  for (const auto& [family, derivedFoldRuns, naiveFoldRuns] :
       {std::tuple{4u, 192, 240}, std::tuple{5u, 128, 176}}) {
    const ir::Program prog = frontend::parseProgram(sweepStencil(family));
    for (const std::int64_t n : {64, 128, 256}) {
      check(prog, codes::bindParams(prog, {{"N", n}}), 16,
            "family " + std::to_string(family) + " N=" + std::to_string(n), derivedFoldRuns,
            naiveFoldRuns, false);
    }
  }
}

TEST(CostModel, MatchesEnumerationWithFractionalWork) {
  // Per-access costs that are not exact binary fractions: the reference sums
  // them access by access, the model multiplies counts once.
  const ir::Program prog = frontend::parseProgram(
      "param N\n"
      "array A(N*N)\n"
      "array B(N*N)\n"
      "phase F1 { doall i = 1, N - 2 { do j = 1, N - 2 {\n"
      "  read A(N*i + j - 1) read A(N*i + j + 1) write B(N*i + j) } }\n"
      "  work 0.3 }\n"
      "phase F2 { doall j = 1, N - 2 { do i = 1, N - 2 {\n"
      "  read B(N*i + j) read B(N*i - N + j) write A(N*i + j) } }\n"
      "  work 1.7 }\n");
  for (const std::int64_t processors : {1, 4, 8}) {
    expectModelMatchesReference(prog, codes::bindParams(prog, {{"N", 48}}), processors,
                                "fractional work");
  }
}

// --- Event order ------------------------------------------------------------

TEST(CostModel, EmitsGlobalThenFrontierPerPhase) {
  // The model charges a phase's global redistributions before its frontier
  // refreshes; the trace oracles group every frontier first and the globals
  // after the replay. Same events, different order — and the order is part
  // of the DSM result's digest.
  const ir::Program prog = frontend::parseProgram(sweepStencil(5));
  const ir::Bindings params = codes::bindParams(prog, {{"N", 64}});
  const dsm::ExecutionPlan plan = derivedPlan(prog, params, 16);
  dsm::MachineParams machine;
  machine.processors = 16;

  const auto order = [](const std::vector<dsm::RedistributionStats>& events) {
    std::vector<std::string> out;
    for (const auto& r : events) out.push_back(r.array + (r.frontier ? " F" : " G"));
    return out;
  };
  const std::vector<std::string> model =
      order(dsm::simulate(prog, params, machine, plan).redistributions);
  EXPECT_EQ(model, (std::vector<std::string>{"A1 G", "A1 F", "A2 G", "A2 F"}));

  loc::SymvalOptions opts;
  opts.processors = 16;
  const std::vector<std::string> symval =
      order(loc::symbolicTrace(prog, params, plan, opts).observed.redistributions);
  EXPECT_EQ(symval, (std::vector<std::string>{"A1 F", "A2 F", "A1 G", "A2 G"}));
}

// --- The fallback path ------------------------------------------------------

/// dsm::countPlan's tallies with every reference sent to the run walk: the
/// "symval.region" fault point fires on every reference.
std::vector<dsm::PhaseTally> countByFallback(const ir::Program& prog, const ir::Bindings& params,
                                             const dsm::ExecutionPlan& plan,
                                             std::int64_t processors) {
  struct EveryReferenceFaulted {
    EveryReferenceFaulted() {
      EXPECT_TRUE(support::FaultInjector::global().configure("symval.region@1+").isOk());
    }
    ~EveryReferenceFaulted() { support::FaultInjector::global().clear(); }
  } fault;
  return dsm::countPlan(prog, params, plan, processors).tallies;
}

/// The run walk == the access-by-access tallies, under the derived plan and
/// under naiveBlock.
void expectFallbackMatchesReference(const ir::Program& prog, const ir::Bindings& params,
                                    std::int64_t processors, const std::string& what) {
  for (const auto& plan : {derivedPlan(prog, params, processors),
                           dsm::ExecutionPlan::naiveBlock(prog, params, processors)}) {
    expectSameTallies(countByFallback(prog, params, plan, processors),
                      reference::countAccesses(prog, params, plan, processors), what, true);
  }
}

TEST(CostModelFallback, RunWalkMatchesTheAccessByAccessTallies) {
  for (const auto& code : codes::benchmarkSuite()) {
    const ir::Program prog = code.build();
    expectFallbackMatchesReference(prog, codes::bindParams(prog, code.smallParams), 4, code.name);
  }
  for (std::size_t family = 0; family < bench::offsetFamilies().size(); ++family) {
    for (std::size_t variant = 0; variant < 19; ++variant) {  // the 114 generated stencils
      const ir::Program prog =
          frontend::parseProgram(bench::generateStencilSource(family, variant));
      expectFallbackMatchesReference(prog, codes::bindParams(prog, {{"N", 12}}), 4,
                                     bench::generatedLabel(family, variant));
    }
  }
  for (std::size_t variant = 0; variant < bench::kPow2Variants; ++variant) {
    const ir::Program prog = frontend::parseProgram(bench::generatePow2Source(variant));
    expectFallbackMatchesReference(prog, codes::bindParams(prog, {{"N", 8}}), 4,
                                   bench::pow2Label(variant));
  }
  // A folded plan whose tails straddle reflection points, over CYCLIC(1).
  const auto [folded, foldedPlan] = foldedSweep(40, 7, 2, 13);
  expectSameTallies(countByFallback(folded, {}, foldedPlan, 4),
                    reference::countAccesses(folded, {}, foldedPlan, 4), "folded", true);
  // A triangular nest under a DOALL, and a DOALL inside a sequential loop.
  const ir::Program tri = frontend::parseProgram(R"(
    param N
    array A(N*N)
    phase upper {
      doall i = 0, N - 1 {
        do j = i, N - 1 {
          read A(N*i + j)
          write A(N*j + i)
        }
      }
    }
    phase inner {
      do t = 0, N - 1 {
        doall i = 0, N - 1 {
          read A(N*t + i)
        }
      }
    }
  )");
  expectFallbackMatchesReference(tri, codes::bindParams(tri, {{"N", 11}}), 3, "triangular");
}

/// `doall i = 0, trips - 1 { read A(i) }`, all of it on one processor (the
/// chunk is the whole loop): one run, and one piece of it.
std::pair<ir::Program, dsm::ExecutionPlan> oneRunSweep(std::int64_t trips) {
  ir::Program prog;
  prog.declareArray("A", sym::Expr::constant(trips));
  ir::PhaseBuilder b(prog, "sweep");
  b.doall("i", sym::Expr::constant(0), sym::Expr::constant(trips - 1));
  b.read("A", b.idx("i"));
  b.commit();
  prog.validate();
  dsm::ExecutionPlan plan;
  plan.iteration = {dsm::IterationDistribution{trips}};
  plan.data["A"] = {dsm::DataDistribution::blockCyclic(64)};
  return {std::move(prog), std::move(plan)};
}

TEST(CostModelFallback, CancelAndDeadlineStopTheRunWalkInsideARun) {
  // The run walk polls once per access, so a fired token or a passed
  // deadline ends a 64k-access run long before its last access.
  const auto [prog, plan] = oneRunSweep(1 << 16);
  {
    auto token = std::make_shared<std::atomic<bool>>(true);
    support::Budget budget(support::BudgetLimits{}, token);
    const support::BudgetScope scope(&budget);
    EXPECT_THROW((void)countByFallback(prog, {}, plan, 4), CancelledError);
  }
  {
    support::Budget budget(support::BudgetLimits{.deadlineMs = 1});
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const support::BudgetScope scope(&budget);
    EXPECT_THROW((void)countByFallback(prog, {}, plan, 4), DeadlineError);
  }
  const auto tallies = countByFallback(prog, {}, plan, 4);
  ASSERT_EQ(tallies.size(), 1u);
  EXPECT_EQ(tallies[0].arrays[0].counts.local + tallies[0].arrays[0].counts.remote, 1 << 16);
  EXPECT_EQ(tallies[0].arrays[0].peAccesses[0], 1 << 16);
  // A run of 2^40 accesses would not end within the test's timeout: only a
  // poll inside the run can stop it.
  const auto [huge, hugePlan] = oneRunSweep(std::int64_t{1} << 40);
  support::Budget budget(support::BudgetLimits{.deadlineMs = 1});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const support::BudgetScope scope(&budget);
  EXPECT_THROW((void)countByFallback(huge, {}, hugePlan, 4), DeadlineError);
}

/// A DOALL whose subscript is quadratic in the parallel index: no uniform
/// shift, and too many iterations to collapse one by one, so the counting
/// core must enumerate the region.
ir::Program uncollapsibleProgram() {
  constexpr std::int64_t kTrip = (1 << 14) + 100;
  ir::Program prog;
  const auto c = [](std::int64_t v) { return sym::Expr::constant(v); };
  prog.declareArray("A", c(kTrip * kTrip));
  prog.declareArray("B", c(kTrip));
  ir::PhaseBuilder b(prog, "square");
  b.doall("i", c(0), c(kTrip - 1));
  b.read("A", b.idx("i") * b.idx("i"));
  b.write("B", b.idx("i"));
  b.commit();
  prog.validate();
  return prog;
}

TEST(CostModelFallback, UncollapsibleRegionStaysExactWithoutLedgerOrBudgetCharge) {
  const ir::Program prog = uncollapsibleProgram();
  dsm::MachineParams machine;
  machine.processors = 4;
  const auto plan = dsm::ExecutionPlan::naiveBlock(prog, {}, 4);
  const dsm::SimulationResult want = reference::simulate(prog, {}, machine, plan);

  support::BudgetLimits limits;
  limits.proverSteps = 10;
  support::Budget budget(limits);
  support::BudgetScope budgetScope(&budget);
  support::DegradationReport ledger;
  support::DegradationScope ledgerScope(&ledger);
  obs::Counter& enumerated = obs::metrics().counter("ad.dsm.regions_enumerated");
  const std::int64_t before = enumerated.value();

  expectSameResult(dsm::simulate(prog, {}, machine, plan), want, "uncollapsible");
  EXPECT_EQ(enumerated.value() - before, 1) << "exactly the A reference falls back";
  EXPECT_TRUE(ledger.empty()) << "the cost model's fallback is not a degradation";
  EXPECT_EQ(budget.stepsUsed(), 0) << "the cost model must not charge the request's budget";
  EXPECT_FALSE(budget.exhausted());

  // The validator, by contrast, charges the budget and records its fallback.
  loc::SymvalOptions opts;
  opts.processors = 4;
  const loc::SymbolicCounts symbolic = loc::symbolicTrace(prog, {}, plan, opts);
  EXPECT_GT(symbolic.enumeratedRegions, 0);
  EXPECT_FALSE(ledger.empty());
}

TEST(CostModelFallback, ExhaustedBudgetLeavesTheModelClosedForm) {
  // The budget-starved runs of degradation_test and `ci.sh fault` reach the
  // cost model with their budget spent. The model must neither notice (its
  // counts stay closed form and exact) nor add to the ledger.
  const ir::Program prog = frontend::parseProgram(sweepStencil(4));
  const ir::Bindings params = codes::bindParams(prog, {{"N", 64}});
  const dsm::ExecutionPlan plan = derivedPlan(prog, params, 4);
  dsm::MachineParams machine;
  machine.processors = 4;
  const dsm::SimulationResult want = reference::simulate(prog, params, machine, plan);

  support::BudgetLimits limits;
  limits.proverSteps = 1;
  support::Budget budget(limits);
  budget.exhaust(support::BudgetStop::kSteps);
  support::BudgetScope budgetScope(&budget);
  support::DegradationReport ledger;
  support::DegradationScope ledgerScope(&ledger);
  obs::Counter& enumerated = obs::metrics().counter("ad.dsm.regions_enumerated");
  const std::int64_t before = enumerated.value();

  expectSameResult(dsm::simulate(prog, params, machine, plan), want, "exhausted budget");
  EXPECT_EQ(enumerated.value(), before);
  EXPECT_TRUE(ledger.empty());
}

TEST(CostModelFallback, EnumerationPollsCancellationAndDeadline) {
  const ir::Program prog = uncollapsibleProgram();
  dsm::MachineParams machine;
  machine.processors = 4;
  const auto plan = dsm::ExecutionPlan::naiveBlock(prog, {}, 4);
  {
    auto token = std::make_shared<std::atomic<bool>>(true);
    support::Budget budget(support::BudgetLimits{}, token);
    support::BudgetScope scope(&budget);
    EXPECT_THROW((void)dsm::simulate(prog, {}, machine, plan), CancelledError);
  }
  {
    support::BudgetLimits limits;
    limits.deadlineMs = 1;
    support::Budget budget(limits);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    support::BudgetScope scope(&budget);
    EXPECT_THROW((void)dsm::simulate(prog, {}, machine, plan), DeadlineError);
  }
}

}  // namespace
}  // namespace ad
