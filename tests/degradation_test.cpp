// The degradation ladder: a forced-Unknown prover (exhausted budget or an
// injected fault) makes every consumer take its documented conservative
// choice — edge label C, no privatization, greedy BLOCK fallback — records
// the downgrade in the DegradationReport, and the degraded result still
// passes the trace-simulator locality validation. Clean runs stay
// byte-identical: no budget, no fault, no "degradation" section.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "codes/suite.hpp"
#include "codes/tfft2.hpp"
#include "driver/pipeline.hpp"
#include "driver/serialize.hpp"
#include "frontend/parser.hpp"
#include "ilp/model.hpp"
#include "lcg/lcg.hpp"
#include "locality/analysis.hpp"
#include "reference_oracles.hpp"
#include "support/budget.hpp"
#include "support/diagnostics.hpp"
#include "support/fault.hpp"
#include "support/thread_pool.hpp"
#include "symbolic/intern.hpp"

namespace ad {
namespace {

/// Installs an already-exhausted budget for the duration of a test body: the
/// prover answers Unknown to everything, as after step/deadline exhaustion.
class ExhaustedBudget {
 public:
  ExhaustedBudget()
      : budget_(limits()), scope_(&budget_), ledgerScope_(&ledger_) {
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

bool hasStage(const std::vector<support::DegradationEvent>& events, std::string_view stage) {
  for (const auto& e : events) {
    if (e.stage == stage) return true;
  }
  return false;
}

TEST(Degradation, ExhaustedBudgetForcesConservativeCEdges) {
  const auto prog = codes::makeTFFT2();
  const auto params = codes::bindParams(prog, {{"P", 8}, {"Q", 8}});

  const lcg::LCG clean = lcg::buildLCG(prog, params, 4);
  std::size_t cleanLocal = 0;
  for (const auto& g : clean.graphs()) {
    for (const auto& e : g.edges) {
      EXPECT_FALSE(e.degraded) << "clean build marked " << g.array << " degraded";
      cleanLocal += e.label == loc::EdgeLabel::kLocal ? 1 : 0;
    }
  }
  ASSERT_GT(cleanLocal, 0u) << "test needs a code with provable L edges";

  ExhaustedBudget exhausted;
  const lcg::LCG degraded = lcg::buildLCG(prog, params, 4);
  std::size_t degradedLocal = 0;
  for (const auto& g : degraded.graphs()) {
    for (const auto& e : g.edges) {
      if (e.label == loc::EdgeLabel::kLocal) ++degradedLocal;
      // Unknown must never manufacture locality; C edges classified under an
      // exhausted budget carry the degraded marker for the validator.
      if (e.label == loc::EdgeLabel::kComm) {
        EXPECT_TRUE(e.degraded) << g.array << " has an undegraded C edge";
      }
    }
  }
  EXPECT_EQ(degradedLocal, 0u) << "exhausted prover still proved L";
  EXPECT_GE(degraded.communicationEdges(), clean.communicationEdges());

  const auto events = exhausted.ledger().snapshot();
  ASSERT_TRUE(hasStage(events, "lcg.edge"));
  for (const auto& e : events) {
    EXPECT_EQ(e.cause, "budget.steps") << e.str();
  }
}

TEST(Degradation, PrivatizationDegradesToNotPrivatized) {
  const auto prog = codes::makeTFFT2();
  const auto params = codes::bindParams(prog, {{"P", 8}, {"Q", 8}});
  // Clean: Y is provably privatizable in F3 (paper Section 4.2).
  ASSERT_TRUE(reference::inferPrivatizable(prog, 2, "Y", params));

  ExhaustedBudget exhausted;
  EXPECT_FALSE(reference::inferPrivatizable(prog, 2, "Y", params))
      << "Unknown must degrade to 'not privatizable'";
  EXPECT_TRUE(hasStage(exhausted.ledger().snapshot(), "privatization"));
}

TEST(Degradation, IlpSearchDegradesToGreedyFallback) {
  const auto prog = codes::makeTFFT2();
  const auto params = codes::bindParams(prog, {{"P", 8}, {"Q", 8}});
  const lcg::LCG clean = lcg::buildLCG(prog, params, 4);
  ilp::Model model = ilp::buildModel(clean, params, 4, ilp::CostParams{});
  ASSERT_TRUE(model.solve().feasible);

  ExhaustedBudget exhausted;
  const ilp::Solution degraded = model.solve();
  EXPECT_FALSE(degraded.feasible) << "exhausted search must fall back to greedy BLOCK";
  EXPECT_TRUE(hasStage(exhausted.ledger().snapshot(), "ilp.solve"));
}

TEST(Degradation, DegradedPipelineStillPassesLocalityValidation) {
  const auto prog = codes::makeTFFT2();
  driver::PipelineConfig config;
  config.params = codes::bindParams(prog, {{"P", 8}, {"Q", 8}});
  config.processors = 4;
  config.validate = driver::ValidateMode::kTrace;
  config.budget.proverSteps = 1;  // exhausts on the first prover step

  const driver::PipelineResult result = driver::analyzeAndSimulate(prog, config);
  EXPECT_TRUE(result.degraded());
  ASSERT_TRUE(result.localityCheck.has_value());
  EXPECT_TRUE(result.localityCheck->ok())
      << "degradation must stay sound: " << result.localityCheck->str();
  EXPECT_TRUE(hasStage(result.degradation, "lcg.edge"));
}

TEST(Degradation, CleanGoldenIsByteStableAndDegradationFree) {
  const auto prog = codes::makeTFFT2();
  driver::PipelineConfig config;
  config.params = codes::bindParams(prog, {{"P", 8}, {"Q", 8}});
  config.processors = 4;

  const auto once = driver::serializeGolden(driver::analyzeAndSimulate(prog, config), prog);
  const auto twice = driver::serializeGolden(driver::analyzeAndSimulate(prog, config), prog);
  EXPECT_EQ(once, twice);
  EXPECT_EQ(once.find("degrad"), std::string::npos)
      << "clean goldens must not mention degradation";
}

TEST(Degradation, DegradedGoldenRecordsTheLadder) {
  const auto prog = codes::makeTFFT2();
  driver::PipelineConfig config;
  config.params = codes::bindParams(prog, {{"P", 8}, {"Q", 8}});
  config.processors = 4;
  config.budget.proverSteps = 1;

  const auto golden = driver::serializeGolden(driver::analyzeAndSimulate(prog, config), prog);
  EXPECT_NE(golden.find("\"degradation\""), std::string::npos);
  EXPECT_NE(golden.find("\"degraded\": true"), std::string::npos);
  EXPECT_NE(golden.find("budget.steps"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Structured failure propagation through the checked boundaries
// ---------------------------------------------------------------------------

class FaultedPipeline : public ::testing::Test {
 protected:
  void TearDown() override { support::FaultInjector::global().clear(); }
};

TEST_F(FaultedPipeline, BatchIsolatesAPoisonedItem) {
  ASSERT_TRUE(support::FaultInjector::global().configure("sim.trace@1").isOk());
  const auto prog = codes::makeTFFT2();
  driver::BatchItem item;
  item.program = &prog;
  item.config.params = codes::bindParams(prog, {{"P", 8}, {"Q", 8}});
  item.config.processors = 4;
  item.config.validate = driver::ValidateMode::kTrace;

  std::vector<driver::BatchItem> batch(2, item);
  batch[0].label = "first";
  batch[1].label = "second";
  const auto results = driver::analyzeBatch(batch, /*jobs=*/1);
  ASSERT_EQ(results.size(), 2u);

  // The submitting thread helps the pool drain, so which item takes the
  // single injected fault is scheduling-dependent — but exactly one does,
  // its status names its own label and stage, and its sibling completes.
  const int failures = static_cast<int>(!results[0].has_value()) +
                       static_cast<int>(!results[1].has_value());
  ASSERT_EQ(failures, 1) << results[0].status().str() << " / " << results[1].status().str();
  const std::size_t bad = results[0].has_value() ? 1 : 0;
  const Status& st = results[bad].status();
  EXPECT_EQ(st.code(), ErrorCode::kAnalysis);
  EXPECT_NE(st.str().find(bad == 0 ? "code=first" : "code=second"), std::string::npos)
      << st.str();
  EXPECT_NE(st.str().find("stage=trace_sim"), std::string::npos) << st.str();

  const auto& good = results[1 - bad];
  ASSERT_TRUE(good.has_value()) << good.status().str();
  EXPECT_TRUE(good->localityCheck.has_value());
}

TEST_F(FaultedPipeline, CheckedEntryPointsReturnStatusInsteadOfThrowing) {
  ASSERT_TRUE(support::FaultInjector::global().configure("sim.trace@1").isOk());
  const auto prog = codes::makeTFFT2();
  driver::PipelineConfig config;
  config.params = codes::bindParams(prog, {{"P", 8}, {"Q", 8}});
  config.processors = 4;
  config.validate = driver::ValidateMode::kTrace;

  const auto result = driver::analyzeAndSimulateChecked(prog, config);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.status().code(), ErrorCode::kAnalysis);
  EXPECT_NE(result.status().str().find("stage=trace_sim"), std::string::npos)
      << result.status().str();

  // With the fault spent, the same call succeeds.
  const auto retry = driver::analyzeAndSimulateChecked(prog, config);
  ASSERT_TRUE(retry.has_value()) << retry.status().str();
}

// ---------------------------------------------------------------------------
// Cooperative cancellation (the service's in-flight story, docs/SERVICE.md)
// ---------------------------------------------------------------------------

TEST(Cancellation, CancelTokenStopsTheProverWithinOneStep) {
  const auto token = std::make_shared<std::atomic<bool>>(false);
  support::Budget budget(support::BudgetLimits{}, token);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(budget.step()) << "an unlimited, uncancelled budget admits work";
  }
  token->store(true);
  // The bound the service relies on: the token is polled on *every* step, so
  // the very next one refuses.
  EXPECT_FALSE(budget.step());
  EXPECT_EQ(budget.stopCause(), support::BudgetStop::kCancelled);
  EXPECT_TRUE(budget.cancelRequested());
}

TEST(Cancellation, ThrowIfCancelledRaisesAtStageBoundaries) {
  const auto token = std::make_shared<std::atomic<bool>>(false);
  support::Budget budget(support::BudgetLimits{}, token);
  support::BudgetScope scope(&budget);
  EXPECT_NO_THROW(support::throwIfCancelled());
  token->store(true);
  EXPECT_THROW(support::throwIfCancelled(), CancelledError);
}

TEST(Cancellation, PreCancelledRunReturnsStructuredCancelledStatus) {
  const auto prog = codes::makeTFFT2();
  driver::PipelineConfig config;
  config.params = codes::bindParams(prog, {{"P", 8}, {"Q", 8}});
  config.processors = 4;
  config.cancel = std::make_shared<std::atomic<bool>>(true);
  const auto result = driver::analyzeAndSimulateChecked(prog, config);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.status().code(), ErrorCode::kCancelled);
}

TEST(Cancellation, MidFlightCancelAbortsTheBatchButNotCleanlyFinishedItems) {
  const auto prog = codes::makeTFFT2();
  driver::BatchItem item;
  item.program = &prog;
  item.config.params = codes::bindParams(prog, {{"P", 8}, {"Q", 8}});
  item.config.processors = 4;

  // An ambient budget whose token is already fired: every queued item must
  // answer kCancelled at its task boundary without starting analysis.
  const auto token = std::make_shared<std::atomic<bool>>(true);
  support::Budget ambient(support::BudgetLimits{}, token);
  support::BudgetScope scope(&ambient);
  const auto results = driver::analyzeBatch({item, item, item}, /*jobs=*/1);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.status().code(), ErrorCode::kCancelled) << r.status().str();
  }
}

// ---------------------------------------------------------------------------
// Per-item budget isolation in the batched engine (the starvation regression)
// ---------------------------------------------------------------------------

/// Prover steps one standalone run of `prog` charges (measured, not assumed,
/// so the test keeps calibrating itself as the analysis evolves).
std::int64_t measureProverSteps(const ir::Program& prog, const ir::Bindings& params) {
  support::Budget meter(support::BudgetLimits{});  // unlimited: counts only
  support::BudgetScope scope(&meter);
  driver::PipelineConfig config;
  config.params = params;
  config.processors = 4;
  const driver::PipelineResult result = driver::analyzeAndSimulate(prog, config);
  EXPECT_FALSE(result.degraded());
  return meter.stepsUsed();
}

TEST(Degradation, BatchSplitsAnAmbientBudgetSoOneHogCannotStarveSiblings) {
  // tfft2 needs an order of magnitude more prover work than tomcatv: under
  // the old shared-allowance behaviour the hog drained the pot and the cheap
  // items degraded with it; under per-item sub-budgets only the hog does.
  // The process-global proof memo would skew the calibration whenever a
  // sibling test already analyzed tfft2 (whole-binary sanitizer runs), so
  // measure and run with it off: every leg charges its cold step count.
  const sym::ProofMemoEnabledGuard memoOff(false);
  const auto hogProg = codes::makeTFFT2();
  const auto hogParams = codes::bindParams(hogProg, {{"P", 16}, {"Q", 16}});
  const auto cheapProg = codes::makeTomcatv();
  const auto cheapParams = codes::bindParams(cheapProg, {{"N", 32}});

  const std::int64_t hogSteps = measureProverSteps(hogProg, hogParams);
  const std::int64_t cheapSteps = measureProverSteps(cheapProg, cheapParams);
  ASSERT_GE(hogSteps, 4 * (cheapSteps + 8))
      << "calibration drifted: tfft2 no longer dominates tomcatv; pick a "
         "cheaper sibling (hog=" << hogSteps << " cheap=" << cheapSteps << ")";
  const std::string cleanCheapGolden = driver::serializeGolden(
      [&] {
        driver::PipelineConfig config;
        config.params = cheapParams;
        config.processors = 4;
        return driver::analyzeAndSimulate(cheapProg, config);
      }(),
      cheapProg);

  driver::BatchItem hog;
  hog.program = &hogProg;
  hog.label = "hog";
  hog.config.params = hogParams;
  hog.config.processors = 4;
  driver::BatchItem cheap;
  cheap.program = &cheapProg;
  cheap.config.params = cheapParams;
  cheap.config.processors = 4;
  std::vector<driver::BatchItem> batch = {hog, cheap, cheap, cheap};
  for (std::size_t i = 1; i < batch.size(); ++i) {
    batch[i].label = "cheap" + std::to_string(i);
  }

  // The pot: each of the 4 items' equal share covers a tomcatv run with
  // margin but is nowhere near tfft2's appetite.
  support::BudgetLimits pot;
  pot.proverSteps = 4 * (cheapSteps + 8);
  support::Budget ambient(pot);
  support::BudgetScope scope(&ambient);
  support::DegradationReport ledger;
  support::DegradationScope ledgerScope(&ledger);

  const auto results = driver::analyzeBatch(batch, /*jobs=*/1);
  ASSERT_EQ(results.size(), 4u);
  ASSERT_TRUE(results[0].has_value()) << results[0].status().str();
  EXPECT_TRUE(results[0]->degraded())
      << "the hog must exhaust its own share and degrade";
  for (std::size_t i = 1; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].has_value()) << results[i].status().str();
    EXPECT_FALSE(results[i]->degraded())
        << "item " << i << " was starved by the hog's appetite";
    EXPECT_EQ(driver::serializeGolden(*results[i], cheapProg), cleanCheapGolden)
        << "a budget-isolated sibling must stay byte-identical to its "
           "unbudgeted run";
  }
}

TEST_F(FaultedPipeline, CheckedPipelineSurvivesPoolTaskFaults) {
  const auto prog = codes::makeTFFT2();
  driver::PipelineConfig config;
  config.params = codes::bindParams(prog, {{"P", 8}, {"Q", 8}});
  config.processors = 4;
  support::ThreadPool pool(2);

  const auto clean = driver::analyzeAndSimulateChecked(prog, config, &pool);
  ASSERT_TRUE(clean.has_value()) << clean.status().str();
  EXPECT_EQ(clean->lcg.communicationEdges(),
            lcg::buildLCG(prog, config.params, 4).communicationEdges());

  ASSERT_TRUE(support::FaultInjector::global().configure("pool.task@1").isOk());
  const auto faulted = driver::analyzeAndSimulateChecked(prog, config, &pool);
  ASSERT_FALSE(faulted.has_value());
  EXPECT_EQ(faulted.status().code(), ErrorCode::kAnalysis);
  EXPECT_NE(faulted.status().message().find("pool.task"), std::string::npos)
      << faulted.status().str();
}

TEST(ContextChain, LcgFailureEndsWithItsArrayOnEveryPath) {
  // B(i*i) has no affine access descriptor: building B's graph fails, A's
  // does not. Serial, pooled and batched runs all name the array last.
  const ir::Program prog = frontend::parseProgram(R"(
param N
array A(N)
array B(N*N)
phase SQUARES {
  doall i = 0, N - 1 {
    read A(i)
    write B(i*i)
  }
}
)");
  driver::PipelineConfig config;
  config.params = codes::bindParams(prog, {{"N", 8}});
  config.processors = 4;
  const auto endsWithArrayB = [](const Status& st) {
    const auto& chain = st.context();
    return chain.size() >= 2 && chain[chain.size() - 2] == "stage=lcg" &&
           chain.back() == "array=B";
  };

  const auto serial = driver::analyzeAndSimulateChecked(prog, config);
  ASSERT_FALSE(serial.has_value());
  EXPECT_TRUE(endsWithArrayB(serial.status())) << serial.status().str();

  support::ThreadPool pool(2);
  const auto pooled = driver::analyzeAndSimulateChecked(prog, config, &pool);
  ASSERT_FALSE(pooled.has_value());
  EXPECT_TRUE(endsWithArrayB(pooled.status())) << pooled.status().str();

  driver::BatchItem item;
  item.program = &prog;
  item.config = config;
  item.label = "demo";
  const auto batched = driver::analyzeBatch({item, item}, /*jobs=*/2);
  for (const auto& r : batched) {
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.status().context().front(), "code=demo") << r.status().str();
    EXPECT_TRUE(endsWithArrayB(r.status())) << r.status().str();
  }
}

}  // namespace
}  // namespace ad
