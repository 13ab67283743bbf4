// Closed-form symbolic trace validation (locality/symbolic_validate):
// differential agreement with the enumerating simulator across the whole
// benchmark suite, hand-computed stencil fixtures, property-fuzzed interval
// algebra, and the degraded (budget/fault) fallback path.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "codes/suite.hpp"
#include "codes/tfft2.hpp"
#include "driver/pipeline.hpp"
#include "dsm/access_count.hpp"
#include "dsm/machine.hpp"
#include "ir/ir.hpp"
#include "locality/symbolic_validate.hpp"
#include "sim/trace_sim.hpp"
#include "support/budget.hpp"
#include "support/checked_int.hpp"
#include "support/fault.hpp"
#include "symbolic/interval_set.hpp"

namespace ad::loc {
namespace {

/// The sim_test stencil: two phases, every access classifiable by hand.
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

/// Uniform two-phase plan for the stencil under one data distribution.
dsm::ExecutionPlan uniformPlan(const dsm::DataDistribution& dist, std::int64_t chunk,
                               std::int64_t halo) {
  dsm::ExecutionPlan plan;
  plan.iteration = {dsm::IterationDistribution{chunk}, dsm::IterationDistribution{chunk}};
  plan.data["A"].assign(2, dist);
  plan.data["B"].assign(2, dist);
  plan.halo["A"] = {halo, halo};
  plan.halo["B"] = {0, 0};
  return plan;
}

/// Runs both oracles and expects byte-identical observed traces.
void expectOraclesAgree(const ir::Program& prog, const dsm::ExecutionPlan& plan,
                        std::int64_t processors) {
  sim::SimOptions simOpts;
  simOpts.processors = processors;
  const sim::TraceResult trace = sim::simulateTrace(prog, {}, plan, simOpts);

  SymvalOptions opts;
  opts.processors = processors;
  const SymbolicCounts symbolic = symbolicTrace(prog, {}, plan, opts);

  const auto diff = describeTraceDifference(symbolic.observed, trace.observed);
  EXPECT_FALSE(diff.has_value()) << *diff;
  EXPECT_EQ(symbolic.totalAccesses, trace.totalAccesses);
}

// --- Hand-computed closed-form fixture -------------------------------------

TEST(Symval, HandComputedStencilCounts) {
  // Same classification as sim_test's HandComputedStencilCounts, but computed
  // without enumerating a single access: CYCLIC(4) on H = 2 gives
  // executor(i) = (i / 4) % 2, and BLOCK-CYCLIC(4) owners match, so only the
  // two block-boundary-crossing reads (A(3) from PE 1, A(4) from PE 0) are
  // remote.
  const ir::Program prog = makeStencil();
  const auto plan = uniformPlan(dsm::DataDistribution::blockCyclic(4), 4, 0);

  SymvalOptions opts;
  opts.processors = 2;
  const SymbolicCounts r = symbolicTrace(prog, {}, plan, opts);

  EXPECT_EQ(r.totalAccesses, 8 + 18 + 6);
  EXPECT_GT(r.closedFormRegions, 0);
  EXPECT_EQ(r.enumeratedRegions, 0);  // nothing should need the fallback

  ASSERT_EQ(r.observed.phases.size(), 2u);
  const auto& produce = r.observed.phases[0];
  EXPECT_EQ(produce.arrays.at("A").local, 8);
  EXPECT_EQ(produce.arrays.at("A").remote, 0);
  const auto& smooth = r.observed.phases[1];
  EXPECT_EQ(smooth.arrays.at("A").local, 16);
  EXPECT_EQ(smooth.arrays.at("A").remote, 2);
  EXPECT_EQ(smooth.arrays.at("A").remoteBytes, 16);
  EXPECT_EQ(smooth.arrays.at("B").local, 6);
  EXPECT_EQ(smooth.arrays.at("B").remote, 0);
}

TEST(Symval, HaloMakesStencilFullyLocal) {
  // A one-element halo replicates exactly the boundary elements the stencil
  // reaches across, so every access becomes local (Theorem 1c).
  const ir::Program prog = makeStencil();
  const auto plan = uniformPlan(dsm::DataDistribution::blockCyclic(4), 4, 1);

  SymvalOptions opts;
  opts.processors = 2;
  const SymbolicCounts r = symbolicTrace(prog, {}, plan, opts);

  ASSERT_EQ(r.observed.phases.size(), 2u);
  EXPECT_EQ(r.observed.phases[1].arrays.at("A").remote, 0);
  EXPECT_EQ(r.observed.localFraction(), 1.0);
}

// --- Differential vs the enumerating oracle, explicit distributions --------

TEST(Symval, AgreesUnderBlock) {
  const ir::Program prog = makeStencil();
  expectOraclesAgree(prog, uniformPlan(dsm::DataDistribution::blocked(8, 2), 4, 0), 2);
  expectOraclesAgree(prog, uniformPlan(dsm::DataDistribution::blocked(8, 4), 2, 1), 4);
}

TEST(Symval, AgreesUnderCyclic) {
  const ir::Program prog = makeStencil();
  expectOraclesAgree(prog, uniformPlan(dsm::DataDistribution::blockCyclic(1), 1, 0), 2);
  expectOraclesAgree(prog, uniformPlan(dsm::DataDistribution::blockCyclic(1), 1, 0), 4);
}

TEST(Symval, AgreesUnderBlockCyclic) {
  const ir::Program prog = makeStencil();
  for (const std::int64_t b : {2, 3, 4}) {
    for (const std::int64_t h : {0, 1}) {
      expectOraclesAgree(prog, uniformPlan(dsm::DataDistribution::blockCyclic(b), b, h), 2);
    }
  }
}

TEST(Symval, AgreesUnderFoldedStorage) {
  // Folded ("reverse") storage: mirror pairs co-located, locality classified
  // after the sigma reflection. Chunk and block need not match.
  const ir::Program prog = makeStencil();
  expectOraclesAgree(prog, uniformPlan(dsm::DataDistribution::foldedBlockCyclic(2, 8), 2, 0), 2);
  expectOraclesAgree(prog, uniformPlan(dsm::DataDistribution::foldedBlockCyclic(1, 8), 4, 1), 2);
}

// --- Differential across the whole benchmark suite -------------------------

class SymvalSuite : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SymvalSuite, DifferentialAgreesAtAllP) {
  const codes::CodeInfo& info = codes::benchmarkSuite()[GetParam()];
  const ir::Program prog = info.build();
  for (const std::int64_t processors : {1, 4, 8}) {
    driver::PipelineConfig config;
    config.params = codes::bindParams(prog, info.smallParams);
    config.processors = processors;
    config.simulatePlan = false;
    config.simulateBaseline = false;
    config.validate = driver::ValidateMode::kBoth;
    const auto result = driver::analyzeAndSimulate(prog, config);
    ASSERT_TRUE(result.trace.has_value());
    ASSERT_TRUE(result.symbolic.has_value());
    EXPECT_TRUE(result.symbolicAgrees())
        << info.name << " H=" << processors << ": " << result.symbolicDifference;
    ASSERT_TRUE(result.localityCheck.has_value());
    EXPECT_TRUE(result.localityCheck->ok()) << info.name << " H=" << processors;
  }
}

/// The communication events of one phase, in order.
void expectSameEvents(const std::vector<dsm::RedistributionStats>& got,
                      const std::vector<dsm::RedistributionStats>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].array, want[i].array) << what;
    EXPECT_EQ(got[i].beforePhase, want[i].beforePhase) << what;
    EXPECT_EQ(got[i].frontier, want[i].frontier) << what;
    EXPECT_EQ(got[i].wordsMoved, want[i].wordsMoved) << what << " " << want[i].array;
    EXPECT_EQ(got[i].messages, want[i].messages) << what << " " << want[i].array;
  }
}

TEST_P(SymvalSuite, TraceCountsMatchTheCountingCorePerProcessor) {
  // The trace oracle reports the closed form's shape: per (phase, array,
  // processor) tallies and the events entering each phase. The differential
  // compares only per-array totals; this compares every processor's share.
  const codes::CodeInfo& info = codes::benchmarkSuite()[GetParam()];
  const ir::Program prog = info.build();
  for (const std::int64_t processors : {1, 4, 8}) {
    driver::PipelineConfig config;
    config.params = codes::bindParams(prog, info.smallParams);
    config.processors = processors;
    config.simulatePlan = false;
    config.simulateBaseline = false;
    config.validate = driver::ValidateMode::kTrace;
    const auto result = driver::analyzeAndSimulate(prog, config);
    ASSERT_TRUE(result.trace.has_value());
    const dsm::PlanCounts& got = result.trace->counts;
    const dsm::PlanCounts want =
        dsm::countPlan(prog, config.params, result.plan, processors);
    ASSERT_EQ(got.tallies.size(), want.tallies.size());
    ASSERT_EQ(got.communication.size(), want.communication.size());
    for (std::size_t k = 0; k < want.tallies.size(); ++k) {
      const std::string at = info.name + " H=" + std::to_string(processors) + " phase " +
                             prog.phase(k).name();
      expectSameEvents(got.communication[k].global, want.communication[k].global, at);
      expectSameEvents(got.communication[k].frontier, want.communication[k].frontier, at);
      const auto& g = got.tallies[k].arrays;
      const auto& w = want.tallies[k].arrays;
      ASSERT_EQ(g.size(), w.size()) << at;
      for (std::size_t i = 0; i < w.size(); ++i) {
        EXPECT_EQ(g[i].array, w[i].array) << at;
        EXPECT_EQ(g[i].refs, w[i].refs) << at << " " << w[i].array;
        EXPECT_EQ(g[i].counts.local, w[i].counts.local) << at << " " << w[i].array;
        EXPECT_EQ(g[i].counts.remote, w[i].counts.remote) << at << " " << w[i].array;
        EXPECT_EQ(g[i].counts.remoteBytes, w[i].counts.remoteBytes) << at << " " << w[i].array;
        EXPECT_EQ(g[i].peAccesses, w[i].peAccesses) << at << " " << w[i].array;
        EXPECT_EQ(g[i].peRemote, w[i].peRemote) << at << " " << w[i].array;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, SymvalSuite,
                         ::testing::Range<std::size_t>(0, codes::benchmarkSuite().size()),
                         [](const auto& i) { return codes::benchmarkSuite()[i.param].name; });

bool hasStage(const std::vector<support::DegradationEvent>& events, std::string_view stage) {
  for (const auto& e : events) {
    if (e.stage == stage) return true;
  }
  return false;
}

// --- AI/HPC kernel family: both binding classes at P in {1, 4, 8} -----------

/// The kernel workload family (codes/kernels.hpp) must hold the differential
/// guarantee under BOTH binding classes: power-of-two sizes (where tile and
/// chunk boundaries line up with block boundaries) and non-power-of-two sizes
/// (where every boundary is misaligned and the interval algebra has to earn
/// its halo slivers). The acceptance bar of the kernel-family PR.
struct KernelCase {
  const char* name;
  std::map<std::string, std::int64_t> pow2;
  std::map<std::string, std::int64_t> nonPow2;
};

const std::vector<KernelCase>& kernelCases() {
  static const std::vector<KernelCase> cases = {
      {"matmul", {{"NT", 4}, {"T", 4}}, {{"NT", 3}, {"T", 5}}},
      {"conv2d", {{"N", 16}, {"K", 4}}, {{"N", 18}, {"K", 3}}},
      {"attention",
       {{"NB", 4}, {"TB", 4}, {"NK", 16}, {"D", 8}},
       {{"NB", 3}, {"TB", 5}, {"NK", 11}, {"D", 7}}},
      {"stencil_tt", {{"BA", 8}, {"L", 32}}, {{"BA", 6}, {"L", 21}}},
  };
  return cases;
}

const codes::CodeInfo& suiteCode(const std::string& name) {
  for (const auto& info : codes::benchmarkSuite()) {
    if (info.name == name) return info;
  }
  ADD_FAILURE() << "kernel " << name << " not registered in codes::benchmarkSuite()";
  std::abort();
}

class KernelSymval : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelSymval, DifferentialAgreesUnderBothBindingClasses) {
  const KernelCase& kc = kernelCases()[GetParam()];
  const codes::CodeInfo& info = suiteCode(kc.name);
  const ir::Program prog = info.build();
  for (const auto* bindings : {&kc.pow2, &kc.nonPow2}) {
    for (const std::int64_t processors : {1, 4, 8}) {
      driver::PipelineConfig config;
      config.params = codes::bindParams(prog, *bindings);
      config.processors = processors;
      config.simulatePlan = false;
      config.simulateBaseline = false;
      config.validate = driver::ValidateMode::kBoth;
      const auto result = driver::analyzeAndSimulate(prog, config);
      ASSERT_TRUE(result.trace.has_value());
      ASSERT_TRUE(result.symbolic.has_value());
      EXPECT_TRUE(result.symbolicAgrees())
          << kc.name << " H=" << processors
          << (bindings == &kc.pow2 ? " (pow2)" : " (non-pow2)") << ": "
          << result.symbolicDifference;
      ASSERT_TRUE(result.localityCheck.has_value());
      EXPECT_TRUE(result.localityCheck->ok()) << kc.name << " H=" << processors;
      EXPECT_FALSE(result.degraded()) << kc.name << " H=" << processors;
    }
  }
}

// Exhausted budget: with the prover budget gone, the front half degrades,
// but counting never charges the budget — the kernels' regions are still
// counted in closed form and must match the enumerating oracle, with no
// symval.region event in the ledger.
TEST_P(KernelSymval, ExhaustedBudgetDegradesButStaysExact) {
  const KernelCase& kc = kernelCases()[GetParam()];
  const codes::CodeInfo& info = suiteCode(kc.name);
  const ir::Program prog = info.build();

  driver::PipelineConfig config;
  config.params = codes::bindParams(prog, kc.nonPow2);
  config.processors = 4;
  config.simulatePlan = false;
  config.simulateBaseline = false;
  config.validate = driver::ValidateMode::kBoth;
  config.budget.proverSteps = 1;  // exhausted on the first prover query
  const auto result = driver::analyzeAndSimulate(prog, config);

  // The front half degrades; the count never charges the budget, so the
  // validator stays closed form and exact.
  ASSERT_TRUE(result.trace.has_value());
  ASSERT_TRUE(result.symbolic.has_value());
  EXPECT_TRUE(result.symbolicAgrees()) << kc.name << ": " << result.symbolicDifference;
  EXPECT_TRUE(result.degraded()) << kc.name;
  EXPECT_FALSE(hasStage(result.degradation, "symval.region")) << kc.name;
  EXPECT_EQ(result.symbolic->enumeratedRegions, 0) << kc.name;
}

INSTANTIATE_TEST_SUITE_P(Kernels, KernelSymval,
                         ::testing::Range<std::size_t>(0, kernelCases().size()),
                         [](const auto& i) { return kernelCases()[i.param].name; });

// --- Property fuzz: interval algebra vs brute-force classification ---------

/// xorshift64* — deterministic, seed-stable across platforms.
std::uint64_t nextRand(std::uint64_t& state) {
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545F4914F6CDD1DULL;
}

TEST(Symval, PropertyCountAPMatchesBruteForce) {
  std::uint64_t rng = 0xAD0C1999;  // fixed seed: failures must reproduce
  for (int iter = 0; iter < 400; ++iter) {
    const std::int64_t block = 1 + static_cast<std::int64_t>(nextRand(rng) % 6);
    const std::int64_t processors = 1 + static_cast<std::int64_t>(nextRand(rng) % 5);
    const std::int64_t pe = static_cast<std::int64_t>(nextRand(rng) % processors);
    const std::int64_t halo = static_cast<std::int64_t>(nextRand(rng) % 3);
    const auto dist = dsm::DataDistribution::blockCyclic(block);

    const sym::PeriodicIntervalSet set = sym::localIntervals(block, processors, pe, halo);
    // Base offset 300 keeps every address non-negative even after make()
    // canonicalizes a descending progression (base + stride*(count-1) shift).
    const auto ap = sym::ArithmeticProgression::make(
        300 + static_cast<std::int64_t>(nextRand(rng) % 64),
        static_cast<std::int64_t>(nextRand(rng) % 15) - 7,
        1 + static_cast<std::int64_t>(nextRand(rng) % 40),
        1 + static_cast<std::int64_t>(nextRand(rng) % 3));
    ASSERT_GE(ap.stride, 0);  // make() canonicalizes
    ASSERT_GE(ap.base, 0);

    std::int64_t brute = 0;
    for (std::int64_t j = 0; j < ap.count; ++j) {
      const std::int64_t addr = ap.base + ap.stride * j;
      if (dist.isLocal(addr, pe, processors, halo)) brute += ap.repeat;
      EXPECT_EQ(set.contains(addr), dist.isLocal(addr, pe, processors, halo))
          << "addr=" << addr << " block=" << block << " P=" << processors << " pe=" << pe
          << " halo=" << halo;
    }
    EXPECT_EQ(set.countAP(ap), brute)
        << "base=" << ap.base << " stride=" << ap.stride << " count=" << ap.count
        << " repeat=" << ap.repeat << " block=" << block << " P=" << processors
        << " pe=" << pe << " halo=" << halo;
  }
}

TEST(Symval, PropertyFoldedCountAPMatchesBruteForce) {
  std::uint64_t rng = 0xF01DED;
  for (int iter = 0; iter < 400; ++iter) {
    const std::int64_t block = 1 + static_cast<std::int64_t>(nextRand(rng) % 4);
    const std::int64_t processors = 1 + static_cast<std::int64_t>(nextRand(rng) % 4);
    const std::int64_t pe = static_cast<std::int64_t>(nextRand(rng) % processors);
    const std::int64_t halo = static_cast<std::int64_t>(nextRand(rng) % 2);
    const std::int64_t fold = 2 * block * processors *
                              (1 + static_cast<std::int64_t>(nextRand(rng) % 3));
    const auto dist = dsm::DataDistribution::foldedBlockCyclic(block, fold);

    const auto set = dsm::foldedLocalIntervals(dist, processors, pe, halo);
    ASSERT_TRUE(set.has_value());
    const auto ap = sym::ArithmeticProgression::make(
        300 + static_cast<std::int64_t>(nextRand(rng) % 96),
        static_cast<std::int64_t>(nextRand(rng) % 13) - 6,
        1 + static_cast<std::int64_t>(nextRand(rng) % 48),
        1 + static_cast<std::int64_t>(nextRand(rng) % 2));
    ASSERT_GE(ap.base, 0);

    std::int64_t brute = 0;
    for (std::int64_t j = 0; j < ap.count; ++j) {
      const std::int64_t addr = ap.base + ap.stride * j;
      if (dist.isLocal(addr, pe, processors, halo)) brute += ap.repeat;
      EXPECT_EQ(set->contains(addr), dist.isLocal(addr, pe, processors, halo))
          << "addr=" << addr << " block=" << block << " fold=" << fold << " P=" << processors
          << " pe=" << pe << " halo=" << halo;
    }
    EXPECT_EQ(set->countAP(ap), brute)
        << "base=" << ap.base << " stride=" << ap.stride << " count=" << ap.count
        << " block=" << block << " fold=" << fold << " P=" << processors << " pe=" << pe
        << " halo=" << halo;
  }
}

TEST(Symval, FoldedLocalIntervalsMatchIsLocalElementwise) {
  // The folded locality set is built from its raw pieces in one sort; every
  // address of two fold periods must classify as the distribution does.
  for (std::int64_t block = 1; block <= 5; ++block) {
    for (const std::int64_t fold : {1, 2, 7, 64, 4096}) {
      const auto dist = dsm::DataDistribution::foldedBlockCyclic(block, fold);
      for (const std::int64_t halo : {0, 1, 3}) {
        for (const std::int64_t processors : {1, 4, 64}) {
          for (std::int64_t pe = 0; pe < processors; ++pe) {
            const auto set = dsm::foldedLocalIntervals(dist, processors, pe, halo);
            ASSERT_TRUE(set.has_value());
            std::int64_t wrong = 0;
            for (std::int64_t addr = 0; addr < 2 * fold; ++addr) {
              wrong += set->contains(addr) != dist.isLocal(addr, pe, processors, halo) ? 1 : 0;
            }
            EXPECT_EQ(wrong, 0) << "block=" << block << " fold=" << fold << " halo=" << halo
                                << " P=" << processors << " pe=" << pe;
          }
        }
      }
    }
  }
}

/// `ap`'s accesses whose addresses `set` contains, one address at a time.
std::int64_t bruteCount(const sym::PeriodicIntervalSet& set, const sym::ArithmeticProgression& ap) {
  std::int64_t n = 0;
  for (std::int64_t j = 0; j < ap.count; ++j) n += set.contains(ap.base + ap.stride * j) ? 1 : 0;
  return n * ap.repeat;
}

TEST(Symval, ShortSpanCountAPMatchesBruteForce) {
  // Progressions spanning at most two periods are counted interval by
  // interval from a binary search; the boundary (a span of exactly two
  // periods) and longer spans take the floor sums. Negative bases, strides
  // past the period, and folded sets with many intervals.
  std::uint64_t rng = 0x5407;
  for (int iter = 0; iter < 600; ++iter) {
    const std::int64_t block = 1 + static_cast<std::int64_t>(nextRand(rng) % 4);
    const std::int64_t processors = 1 + static_cast<std::int64_t>(nextRand(rng) % 6);
    const std::int64_t pe = static_cast<std::int64_t>(nextRand(rng) % processors);
    const std::int64_t halo = static_cast<std::int64_t>(nextRand(rng) % 3);
    const std::int64_t fold = 1 + static_cast<std::int64_t>(nextRand(rng) % 50);
    const sym::PeriodicIntervalSet set =
        iter % 2 == 0 ? sym::localIntervals(block, processors, pe, halo)
                      : *dsm::foldedLocalIntervals(
                            dsm::DataDistribution::foldedBlockCyclic(block, fold), processors,
                            pe, halo);
    const std::int64_t period = set.period();
    const std::int64_t base = static_cast<std::int64_t>(nextRand(rng) % 400) - 250;
    std::int64_t stride = 1 + static_cast<std::int64_t>(nextRand(rng) % (3 * period));
    std::int64_t count = 0;
    switch (iter % 3) {
      case 0:  // a span of exactly two periods, or one address less
        stride = 1 + static_cast<std::int64_t>(nextRand(rng) % 2);
        count = (2 * period - static_cast<std::int64_t>(nextRand(rng) % 2)) / stride + 1;
        break;
      case 1:  // inside two periods, the stride possibly past one period
        count = 1 + (2 * period - 1) / stride;
        count = 1 + static_cast<std::int64_t>(nextRand(rng) % static_cast<std::uint64_t>(count));
        break;
      default:  // anything up to a few periods
        count = 1 + static_cast<std::int64_t>(nextRand(rng) % 40);
    }
    const auto ap = sym::ArithmeticProgression::make(
        base, stride, count, 1 + static_cast<std::int64_t>(nextRand(rng) % 3));
    EXPECT_EQ(set.countAP(ap), bruteCount(set, ap))
        << "base=" << ap.base << " stride=" << ap.stride << " count=" << ap.count
        << " span=" << ap.stride * (ap.count - 1) << " period=" << period
        << " intervals=" << set.intervals().size();
  }
}

TEST(Symval, CountResiduesInMatchesBruteForceAtTheEnds) {
  std::uint64_t rng = 0xE9D5;
  for (int iter = 0; iter < 500; ++iter) {
    const std::int64_t m = 1 + static_cast<std::int64_t>(nextRand(rng) % 30);
    const std::int64_t a = static_cast<std::int64_t>(nextRand(rng) % 200) - 100;
    const std::int64_t s = static_cast<std::int64_t>(nextRand(rng) % 80) - 40;
    const std::int64_t n = static_cast<std::int64_t>(nextRand(rng) % 50);
    const std::int64_t mid = static_cast<std::int64_t>(nextRand(rng) % (m + 1));
    for (const auto& [lo, hi] : {std::pair{std::int64_t{0}, mid}, std::pair{mid, m},
                                 std::pair{std::int64_t{0}, m}}) {
      std::int64_t brute = 0;
      for (std::int64_t j = 0; j < n; ++j) {
        const std::int64_t r = euclidMod(a + s * j, m);
        brute += lo <= r && r < hi ? 1 : 0;
      }
      EXPECT_EQ(sym::countResiduesIn(a, s, n, m, lo, hi), brute)
          << "a=" << a << " s=" << s << " n=" << n << " m=" << m << " [" << lo << ", " << hi
          << ")";
    }
  }
}

TEST(Symval, LocalitySetsAreProcessorZerosRotated) {
  // The counting core keeps one BLOCK-CYCLIC set per (block, halo): pe's set
  // is pe 0's shifted by pe * block, and on each monotone piece of a fold an
  // address classifies as pe 0's set does at sigma(a) - pe * block.
  for (std::int64_t block = 1; block <= 4; ++block) {
    for (const std::int64_t processors : {1, 3, 8}) {
      for (const std::int64_t halo : {0, 1, 5}) {
        const sym::PeriodicIntervalSet zero = sym::localIntervals(block, processors, 0, halo);
        const std::int64_t period = zero.period();
        for (std::int64_t pe = 0; pe < processors; ++pe) {
          const sym::PeriodicIntervalSet own = sym::localIntervals(block, processors, pe, halo);
          std::int64_t wrong = 0;
          for (std::int64_t addr = 0; addr < 2 * period; ++addr) {
            wrong += own.contains(addr) != zero.contains(addr - pe * block) ? 1 : 0;
          }
          EXPECT_EQ(wrong, 0) << "block=" << block << " P=" << processors << " pe=" << pe
                              << " halo=" << halo;
          for (const std::int64_t fold : {std::int64_t{1}, std::int64_t{2}, std::int64_t{7}, 2 * period, 2 * period + 1}) {
            const auto dist = dsm::DataDistribution::foldedBlockCyclic(block, fold);
            std::int64_t wrongFolded = 0;
            for (std::int64_t addr = 0; addr < 2 * fold; ++addr) {
              const std::int64_t q = addr / fold;
              const std::int64_t sigma =
                  addr - q * fold <= fold / 2 ? addr - q * fold : (q + 1) * fold - addr;
              wrongFolded += zero.contains(sigma - pe * block) !=
                                     dist.isLocal(addr, pe, processors, halo)
                                 ? 1
                                 : 0;
            }
            EXPECT_EQ(wrongFolded, 0) << "block=" << block << " fold=" << fold
                                      << " P=" << processors << " pe=" << pe << " halo=" << halo;
          }
        }
      }
    }
  }
}

TEST(Symval, FloorSumMatchesBruteForce) {
  std::uint64_t rng = 0x5EED;
  for (int iter = 0; iter < 500; ++iter) {
    const std::int64_t m = 1 + static_cast<std::int64_t>(nextRand(rng) % 30);
    const std::int64_t a = static_cast<std::int64_t>(nextRand(rng) % 200) - 100;
    const std::int64_t s = static_cast<std::int64_t>(nextRand(rng) % 40) - 20;
    const std::int64_t n = static_cast<std::int64_t>(nextRand(rng) % 50);
    std::int64_t brute = 0;
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int64_t x = a + s * j;
      // floor division toward -inf
      brute += (x >= 0) ? x / m : -((-x + m - 1) / m);
    }
    EXPECT_EQ(sym::floorSum(a, s, n, m), brute) << "a=" << a << " s=" << s << " n=" << n
                                                << " m=" << m;
  }
}

// --- Degraded paths: budget exhaustion and fault injection -----------------

/// Installs an already-exhausted budget plus a degradation ledger, as
/// tests/degradation_test.cpp does.
class ExhaustedBudget {
 public:
  ExhaustedBudget() : budget_(limits()), scope_(&budget_), ledgerScope_(&ledger_) {
    budget_.exhaust(support::BudgetStop::kSteps);
  }

  [[nodiscard]] const support::DegradationReport& ledger() const { return ledger_; }

 private:
  static support::BudgetLimits limits() {
    support::BudgetLimits l;
    l.proverSteps = 1;
    return l;
  }
  support::Budget budget_;
  support::BudgetScope scope_;
  support::DegradationReport ledger_;
  support::DegradationScope ledgerScope_;
};

TEST(SymvalDegraded, ExhaustedBudgetStaysClosedFormAndExact) {
  // With the prover budget gone the count still runs in closed form — it
  // never charges the budget — and equals the simulator's exactly, with no
  // region enumerated and nothing on the ledger.
  const ir::Program prog = makeStencil();
  const auto plan = uniformPlan(dsm::DataDistribution::blockCyclic(4), 4, 1);

  sim::SimOptions simOpts;
  simOpts.processors = 2;
  const sim::TraceResult trace = sim::simulateTrace(prog, {}, plan, simOpts);

  ExhaustedBudget exhausted;
  SymvalOptions opts;
  opts.processors = 2;
  const SymbolicCounts symbolic = symbolicTrace(prog, {}, plan, opts);

  const auto diff = describeTraceDifference(symbolic.observed, trace.observed);
  EXPECT_FALSE(diff.has_value()) << *diff;
  EXPECT_EQ(symbolic.enumeratedRegions, 0);
  EXPECT_GT(symbolic.closedFormRegions, 0);
  EXPECT_TRUE(exhausted.ledger().snapshot().empty());
}

class SymvalFault : public ::testing::Test {
 protected:
  void TearDown() override { support::FaultInjector::global().clear(); }
};

TEST_F(SymvalFault, InjectedRegionFaultDegradesSoundly) {
  ASSERT_TRUE(support::FaultInjector::global().configure("symval.region@1").isOk());

  const ir::Program prog = makeStencil();
  const auto plan = uniformPlan(dsm::DataDistribution::blockCyclic(4), 4, 0);

  support::DegradationReport ledger;
  std::optional<SymbolicCounts> symbolic;
  {
    support::DegradationScope scope(&ledger);
    SymvalOptions opts;
    opts.processors = 2;
    symbolic = symbolicTrace(prog, {}, plan, opts);
  }
  support::FaultInjector::global().clear();

  sim::SimOptions simOpts;
  simOpts.processors = 2;
  const sim::TraceResult trace = sim::simulateTrace(prog, {}, plan, simOpts);

  const auto diff = describeTraceDifference(symbolic->observed, trace.observed);
  EXPECT_FALSE(diff.has_value()) << *diff;
  EXPECT_GT(symbolic->enumeratedRegions, 0);
  const auto events = ledger.snapshot();
  ASSERT_TRUE(hasStage(events, "symval.region"));
  for (const auto& e : events) {
    if (e.stage == "symval.region") {
      EXPECT_EQ(e.cause, "fault");
    }
  }
}

// --- Differential detector actually detects --------------------------------

TEST(Symval, DescribeTraceDifferenceFlagsMismatch) {
  const ir::Program prog = makeStencil();
  const auto plan = uniformPlan(dsm::DataDistribution::blockCyclic(4), 4, 0);
  SymvalOptions opts;
  opts.processors = 2;
  const SymbolicCounts a = symbolicTrace(prog, {}, plan, opts);

  dsm::ObservedTrace tampered = a.observed;
  ASSERT_FALSE(tampered.phases.empty());
  tampered.phases[1].arrays.at("A").local += 1;
  const auto diff = describeTraceDifference(a.observed, tampered);
  ASSERT_TRUE(diff.has_value());
  EXPECT_NE(diff->find("smooth"), std::string::npos) << *diff;
}

}  // namespace
}  // namespace ad::loc
