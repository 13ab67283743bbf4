// Whole-stack fuzz: random producer/consumer phase programs pushed through
// the complete pipeline. Invariants checked for every generated program:
//   - the pipeline runs (or fails with a typed AnalysisError, never UB),
//   - the derived plan is value-correct (reference::validateDataFlow),
//   - LCG L edges imply satisfiable balanced conditions by construction.
//
// Reproducing a failure: every assertion carries the active fuzz seed (via
// SCOPED_TRACE). Re-run just that seed with
//     ./build/tests/pipeline_fuzz_test --seed=N
// or AD_FUZZ_SEED=N; the override replaces the default seed set (this binary
// has its own main(), so the flag is parsed before Google Test).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <random>

#include "driver/pipeline.hpp"
#include "ir/ir.hpp"
#include "reference_oracles.hpp"

namespace ad {
namespace {

using sym::Expr;

// Seed override installed by main() before test instantiation; 0 = none.
bool gHasSeedOverride = false;
unsigned gSeedOverride = 0;

Expr c(std::int64_t v) { return Expr::constant(v); }

class PipelineFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(PipelineFuzz, RandomProgramsSurviveTheFullStack) {
  const unsigned seed = gHasSeedOverride ? gSeedOverride : GetParam();
  if (gHasSeedOverride && GetParam() != 101u) {
    GTEST_SKIP() << "seed overridden to " << seed << "; running one instance only";
  }
  SCOPED_TRACE("fuzz seed " + std::to_string(seed));
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> nArrays(2, 3);  // src != dst keeps DOALLs legal
  std::uniform_int_distribution<int> nPhases(2, 4);
  std::uniform_int_distribution<int> rows(8, 24);
  std::uniform_int_distribution<int> width(2, 6);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> shift(-1, 1);

  for (int trial = 0; trial < 12; ++trial) {
    const int numArrays = nArrays(rng);
    const int numPhases = nPhases(rng);
    const std::int64_t R = rows(rng);
    const std::int64_t W = width(rng);

    ir::Program prog;
    std::vector<std::string> arrays;
    for (int a = 0; a < numArrays; ++a) {
      arrays.push_back("A" + std::to_string(a));
      // Padded so stencil-style +-1 shifts stay in bounds.
      prog.declareArray(arrays.back(), c((R + 2) * (W + 2)));
    }

    for (int k = 0; k < numPhases; ++k) {
      ir::PhaseBuilder b(prog, "ph" + std::to_string(k));
      const bool rowParallel = coin(rng) == 0;
      // Offset by W+2 elements so i-1 / j-1 shifts stay nonnegative.
      if (rowParallel) {
        b.doall("i", c(1), c(R));
        b.loop("j", c(1), c(W));
      } else {
        b.doall("j", c(1), c(W));
        b.loop("i", c(1), c(R));
      }
      const Expr addr = (b.idx("i")) * c(W + 2) + b.idx("j");
      // Each phase reads one array (with a possible stencil shift) and
      // writes another.
      const std::string& src = arrays[static_cast<std::size_t>(k) % arrays.size()];
      const std::string& dst = arrays[static_cast<std::size_t>(k + 1) % arrays.size()];
      b.read(src, addr + c(shift(rng)));
      if (coin(rng)) b.read(src, addr + c((W + 2) * shift(rng)));
      b.write(dst, addr);
      b.commit();
    }
    prog.setCyclic(coin(rng) == 0);
    prog.validate();

    driver::PipelineConfig config;
    config.processors = 4;
    const auto result = driver::analyzeAndSimulate(prog, config);
    ASSERT_GT(result.planned.parallelTime(), 0.0) << prog.str();
    // NOTE: no planned-vs-naive performance assertion here. On toy problem
    // sizes the fixed communication latencies (frontier refreshes around
    // block-1 distributions of 4-iteration DOALLs) can exceed the cost of
    // simply leaving a handful of accesses remote — a real tradeoff the
    // cost model only wins at scale, which the codes_test suite checks at
    // proper sizes. The fuzz checks *soundness*, below.

    const auto flow = reference::validateDataFlow(prog, config.params, result.plan, 4);
    EXPECT_TRUE(flow.ok()) << prog.str() << "\n"
                           << (flow.diagnostics.empty() ? "" : flow.diagnostics[0]);

    // Every L edge's balanced condition must actually hold (the label is
    // only assigned after the feasibility check, so this is a consistency
    // invariant of the LCG construction).
    for (const auto& g : result.lcg.graphs()) {
      for (const auto& e : g.edges) {
        if (e.label != loc::EdgeLabel::kLocal) continue;
        if (!e.condition) continue;
        EXPECT_TRUE(e.condition->holds(config.params, 4)) << prog.str();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz, ::testing::Values(101u, 202u, 303u, 404u, 505u));

}  // namespace
}  // namespace ad

int main(int argc, char** argv) {
  // Parse --seed=N / AD_FUZZ_SEED before InitGoogleTest so the override is in
  // place when the parameterized instances run. The override collapses the
  // run to a single instance with that exact seed.
  const auto install = [](const char* text) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(text, &end, 10);
    if (end != text && *end == '\0') {
      ad::gHasSeedOverride = true;
      ad::gSeedOverride = static_cast<unsigned>(v);
    }
  };
  if (const char* env = std::getenv("AD_FUZZ_SEED"); env && *env) install(env);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) install(argv[i] + 7);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
