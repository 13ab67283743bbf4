#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "codes/suite.hpp"
#include "codes/tfft2.hpp"
#include "driver/pipeline.hpp"
#include "frontend/parser.hpp"
#include "obs/obs.hpp"

namespace ad::driver {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() : prog(codes::makeTFFT2()) {
    const auto p = *prog.symbols().lookup("p");
    const auto q = *prog.symbols().lookup("q");
    config.params = {{p, 5}, {q, 5}};  // P = Q = 32, arrays of 2049 elements
    config.processors = 8;
  }
  ir::Program prog;
  PipelineConfig config;
};

TEST_F(PipelineTest, EndToEndRuns) {
  const auto result = analyzeAndSimulate(prog, config);
  ASSERT_TRUE(result.solution.feasible);
  ASSERT_EQ(result.plan.iteration.size(), 8u);
  ASSERT_EQ(result.planned.phases.size(), 8u);
  // The report mentions the main artifacts.
  const std::string rep = result.report(prog);
  EXPECT_NE(rep.find("LCG"), std::string::npos);
  EXPECT_NE(rep.find("CYCLIC("), std::string::npos);
  EXPECT_NE(rep.find("efficiency"), std::string::npos);
}

TEST_F(PipelineTest, PlannedPhasesAreAlmostAllLocal) {
  const auto result = analyzeAndSimulate(prog, config);
  // Within every phase of the derived plan, accesses are local: that is the
  // point of the chain-wide distributions + folded F8 + redistributions.
  for (const auto& ph : result.planned.phases) {
    EXPECT_EQ(ph.remoteAccesses, 0) << ph.phase;
  }
  // Redistributions that move data: X entering F3 (values live from F2) and
  // Y entering the folded F8. The write-only transitions (X entering F2/F8,
  // Y entering F4) are re-allocations and move nothing.
  EXPECT_EQ(result.planned.redistributions.size(), 2u);
}

TEST_F(PipelineTest, PlannedBeatsNaive) {
  const auto result = analyzeAndSimulate(prog, config);
  EXPECT_GT(result.naive.totalRemoteAccesses(), 0);
  EXPECT_LT(result.planned.parallelTime(), result.naive.parallelTime());
  EXPECT_GT(result.plannedEfficiency(), result.naiveEfficiency());
}

TEST_F(PipelineTest, SchedulesVerifyAndMatchRedistributions) {
  const auto result = analyzeAndSimulate(prog, config);
  EXPECT_EQ(result.schedules.size(), result.planned.redistributions.size());
  for (const auto& s : result.schedules) {
    EXPECT_GT(s.totalWords(), 0);
    EXPECT_GT(s.messageCount(), 0u);
  }
}

/// Each pipeline schedule against the cost model's global redistribution for
/// the same array and phase: the comm layer emits exactly the words and
/// messages dsm::countPlan charges, and a schedule moving nothing has no entry.
/// Returns how many schedules matched an entry.
std::size_t expectSchedulesMatchRedistributions(const ir::Program& program,
                                         const PipelineConfig& config,
                                         const std::string& what) {
  const auto result = analyzeAndSimulate(program, config);
  std::map<std::pair<std::string, std::size_t>, const dsm::RedistributionStats*> counted;
  for (const auto& r : result.planned.redistributions) {
    if (!r.frontier) counted[{r.array, r.beforePhase}] = &r;
  }
  std::size_t next = 0;
  std::size_t matched = 0;
  for (const auto& [array, dists] : result.plan.data) {
    for (std::size_t k = 1; k < dists.size(); ++k) {
      if (dists[k - 1] == dists[k] || !dists[k - 1].hasOwner() || !dists[k].hasOwner() ||
          !dsm::redistributionMovesData(program, array, k)) {
        continue;
      }
      const std::string where = what + " " + array + " entering phase " + std::to_string(k);
      if (next == result.schedules.size()) {
        ADD_FAILURE() << where << ": no schedule";
        return matched;
      }
      const comm::CommSchedule& schedule = result.schedules[next++];
      EXPECT_EQ(schedule.array(), array) << where;
      const auto it = counted.find({array, k});
      if (schedule.totalWords() == 0) {
        EXPECT_EQ(it, counted.end()) << where;
        continue;
      }
      if (it == counted.end()) {
        ADD_FAILURE() << where << ": no redistribution entry";
        continue;
      }
      EXPECT_EQ(schedule.totalWords(), it->second->wordsMoved) << where;
      EXPECT_EQ(static_cast<std::int64_t>(schedule.messageCount()), it->second->messages)
          << where;
      ++matched;
    }
  }
  EXPECT_EQ(next, result.schedules.size()) << what;
  EXPECT_EQ(matched, counted.size()) << what;
  return matched;
}

/// The request benchmark's generated stencil (one offset family, variant 1):
/// three phases over N*N arrays, phase k reading Ak through a rotated slice of
/// the offsets and writing A(k+1).
std::string stencilSource(const std::vector<std::string>& offsets) {
  std::string src = "param N\n";
  for (int a = 0; a <= 3; ++a) src += "array A" + std::to_string(a) + "(N*N)\n";
  for (std::size_t k = 0; k < 3; ++k) {
    const std::size_t width = 1 + (1 + k) % offsets.size();
    src += "phase S" + std::to_string(k) + " {\n  doall i = 1, N - 2 {\n    do j = 1, N - 2 {\n";
    for (std::size_t o = 0; o <= width; ++o) {
      src += "      read A" + std::to_string(k) + "(" + offsets[(1 + k + o) % offsets.size()] +
             ")\n";
    }
    src += "      write A" + std::to_string(k + 1) + "(N*i + j)\n    }\n  }\n";
    if (k % 2 == 0) src += "  work 2.0\n";
    src += "}\n";
  }
  return src;
}

TEST(CrossLayer, SchedulesCarryTheWordsAndMessagesTheCostModelCharges) {
  std::size_t suiteMatched = 0;
  for (const auto& info : codes::benchmarkSuite()) {
    const ir::Program program = info.build();
    for (const auto* params : {&info.smallParams, &info.simParams}) {
      PipelineConfig config;
      config.params = codes::bindParams(program, *params);
      config.processors = 8;
      suiteMatched += expectSchedulesMatchRedistributions(program, config, info.name);
    }
  }
  EXPECT_GT(suiteMatched, 0u);
  // The request benchmark's simulated shapes: TFFT2 P = Q = 32, 64 at H = 64,
  // and stencil offset families 4 and 5 at N = 64, 128, 256 on 16 processors.
  std::size_t sweepMatched = 0;
  const ir::Program tfft2 = codes::makeTFFT2();
  for (const std::int64_t pq : {32, 64}) {
    PipelineConfig config;
    config.params = codes::bindParams(tfft2, {{"P", pq}, {"Q", pq}});
    config.processors = 64;
    sweepMatched +=
        expectSchedulesMatchRedistributions(tfft2, config, "tfft2 " + std::to_string(pq));
  }
  const std::vector<std::vector<std::string>> families = {
      {"N*i + j", "N*i + j - 1", "N*i + j + 1", "N*i - N + j", "N*i + N + j"},
      {"N*i + 2*j", "N*i + 2*j + 1"}};
  for (const auto& offsets : families) {
    const ir::Program program = frontend::parseProgram(stencilSource(offsets));
    for (const std::int64_t n : {64, 128, 256}) {
      PipelineConfig config;
      config.params = codes::bindParams(program, {{"N", n}});
      config.processors = 16;
      sweepMatched += expectSchedulesMatchRedistributions(
          program, config, offsets.back() + " N=" + std::to_string(n));
    }
  }
  EXPECT_EQ(sweepMatched, 11u);  // the request benchmark's comm.schedules
}

TEST_F(PipelineTest, EfficiencyScalesAcrossProcessors) {
  // P = Q = 64. The F7-F8 locality constraint p8 = 2Q*p7 needs
  // H <= P/4 to stay inside the load-balance bounds, so sweep up to 16 here
  // (the 64-processor reproduction runs at P = Q = 256 in the bench).
  const auto p = *prog.symbols().lookup("p");
  const auto q = *prog.symbols().lookup("q");
  config.params = {{p, 6}, {q, 6}};
  for (const std::int64_t H : {2, 4, 16}) {
    config.processors = H;
    const auto result = analyzeAndSimulate(prog, config);
    ASSERT_TRUE(result.solution.feasible) << "H=" << H;
    const double eff = result.plannedEfficiency();
    EXPECT_GT(eff, 0.5) << "H=" << H;
    EXPECT_LE(eff, 1.05) << "H=" << H;
  }
}

TEST_F(PipelineTest, OverSubscribedMachineDegradesToMoreCommunication) {
  // H = 64 with P = Q = 32 makes the F7-F8 coupling infeasible within the
  // load-balance bounds, so the balanced condition fails and that edge turns
  // C — the ILP stays feasible (infeasible couplings never become
  // constraints) but the LCG carries more communication edges.
  config.processors = 64;
  const auto result = analyzeAndSimulate(prog, config);
  EXPECT_TRUE(result.solution.feasible);
  ASSERT_EQ(result.plan.iteration.size(), 8u);
  EXPECT_GT(result.planned.parallelTime(), 0.0);

  config.processors = 8;
  const auto small = analyzeAndSimulate(prog, config);
  EXPECT_GT(result.lcg.communicationEdges(), small.lcg.communicationEdges());
}

TEST_F(PipelineTest, SymbolicallyValidatedRunCountsEachPlanOnce) {
  // The cost model and the validator share one count of the derived plan;
  // the naive baseline takes the other.
  config.validate = ValidateMode::kSymbolic;
  obs::Counter& passes = obs::metrics().counter("ad.dsm.count_passes");
  const std::int64_t before = passes.value();
  const auto result = analyzeAndSimulate(prog, config);
  ASSERT_TRUE(result.symbolic.has_value());
  EXPECT_EQ(passes.value() - before, 2);
}

TEST_F(PipelineTest, MetricsAndTraceMatchSimulation) {
  obs::metrics().reset();
  obs::tracer().clear();
  obs::tracer().enable();
  config.validate = driver::ValidateMode::kTrace;

  const auto result = analyzeAndSimulate(prog, config);
  obs::tracer().disable();
  ASSERT_TRUE(result.trace.has_value());

  // The ad.sim traffic counters must equal the simulator's own totals: both
  // are derived from the same per-shard tallies.
  std::int64_t local = 0;
  std::int64_t remote = 0;
  for (const auto& ph : result.trace->observed.phases) {
    local += ph.local();
    remote += ph.remote();
  }
  EXPECT_EQ(obs::metrics().counter("ad.sim.local_accesses").value(), local);
  EXPECT_EQ(obs::metrics().counter("ad.sim.remote_accesses").value(), remote);
  EXPECT_EQ(local + remote, result.trace->totalAccesses);

  // Stable schema: these keys exist in the exported document even when the
  // underlying event never fired on this input.
  const std::string json = obs::metrics().toJson();
  for (const char* key :
       {"\"schema\": \"ad.metrics.v1\"", "\"ad.desc.stride_coalescings\"",
        "\"ad.desc.term_unions\"", "\"ad.desc.homogenizations\"", "\"ad.desc.offset_adjustments\"",
        "\"ad.lcg.edges_local\"", "\"ad.lcg.edges_comm\"", "\"ad.lcg.edges_uncoupled\"",
        "\"ad.ilp.variables\"", "\"ad.ilp.equality_constraints\"", "\"ad.ilp.greedy_fallbacks\"",
        "\"ad.sim.local_accesses\"", "\"ad.sim.remote_accesses\"",
        "\"ad.sim.local_per_proc_phase\"", "\"ad.sim.remote_per_proc_phase\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }

  // Every pipeline stage produced a span, and the simulator emitted
  // per-phase spans.
  const auto stats = obs::tracer().statsByName();
  for (const char* span : {"pipeline.analyze_and_simulate", "pipeline.lcg", "pipeline.ilp_build",
                           "pipeline.ilp_solve", "pipeline.plan", "pipeline.dsm_model",
                           "pipeline.trace_sim", "sim.trace"}) {
    EXPECT_TRUE(stats.count(span)) << span;
  }
  const bool hasPhaseSpan =
      std::any_of(stats.begin(), stats.end(),
                  [](const auto& kv) { return kv.first.rfind("sim.phase:", 0) == 0; });
  EXPECT_TRUE(hasPhaseSpan);

  // The report embeds the metrics document.
  EXPECT_NE(result.report(prog).find("ad.metrics.v1"), std::string::npos);
}

TEST_F(PipelineTest, FoldedDistributionServesF8) {
  const auto result = analyzeAndSimulate(prog, config);
  const auto& xDists = result.plan.data.at("X");
  EXPECT_EQ(xDists[7].kind, dsm::DataDistribution::Kind::kFoldedBlockCyclic);
  EXPECT_EQ(xDists[7].fold, 32 * 32);
  const auto& yDists = result.plan.data.at("Y");
  EXPECT_EQ(yDists[7].kind, dsm::DataDistribution::Kind::kFoldedBlockCyclic);
  // Earlier phases use plain BLOCK-CYCLIC.
  EXPECT_EQ(xDists[3].kind, dsm::DataDistribution::Kind::kBlockCyclic);
}

/// Two arrays over two phases: each item's LCG fans out one task per array,
/// and array A one more per phase node, so a batch nests three group levels.
constexpr const char* kStreamSource =
    "param N\n"
    "array A(N)\n"
    "array B(N)\n"
    "phase F1 { doall i = 0, N - 1 { write A(i) } }\n"
    "phase F2 { doall i = 0, N - 1 { read A(i) write B(i) } }\n";

std::vector<BatchItem> streamBatch(const ir::Program& program, std::size_t items,
                                   std::size_t jobs) {
  PipelineConfig config;
  config.params = codes::bindParams(program, {{"N", 64}});
  config.processors = 4;
  config.simulatePlan = false;
  config.simulateBaseline = false;
  config.jobs = jobs;
  return std::vector<BatchItem>(items, BatchItem{&program, config, ""});
}

// A join helps only with its own group, so a thread nests at most one task
// per group level however long the batch is. A join that helped with any
// queued task would nest one whole item per batch entry on the waiter's
// stack, which overflows the default 8 MB stack at about 2000 items.
TEST(AnalyzeBatch, TenThousandItemsFinishAtTheDefaultStackSize) {
  const ir::Program program = frontend::parseProgram(kStreamSource);
  for (const std::size_t jobs : {1u, 4u}) {
    const auto results = analyzeBatch(streamBatch(program, 10000, jobs), jobs);
    ASSERT_EQ(results.size(), 10000u);
    const auto set = std::count_if(results.begin(), results.end(),
                                   [](const auto& r) { return r.ok(); });
    EXPECT_EQ(set, 10000) << "jobs=" << jobs;
  }
}

// The same property seen in the trace: each item's span covers its own work
// only, so on every thread the item spans follow one another and none opens
// inside another.
TEST(AnalyzeBatch, ItemSpansNeverNestOnOneThread) {
  const ir::Program program = frontend::parseProgram(kStreamSource);
  obs::tracer().clear();
  obs::tracer().enable();
  const auto results = analyzeBatch(streamBatch(program, 40, 4), 4);
  obs::tracer().disable();
  ASSERT_EQ(results.size(), 40u);

  std::map<std::int64_t, std::vector<obs::TraceEvent>> byTid;
  std::size_t spans = 0;
  for (auto& e : obs::tracer().snapshot()) {
    if (e.name != "pipeline.analyze_and_simulate") continue;
    ++spans;
    byTid[e.tid].push_back(std::move(e));
  }
  EXPECT_EQ(spans, 40u);
  for (auto& [tid, events] : byTid) {
    std::sort(events.begin(), events.end(),
              [](const auto& a, const auto& b) { return a.ts < b.ts; });
    for (std::size_t i = 1; i < events.size(); ++i) {
      EXPECT_GE(events[i].ts, events[i - 1].ts + events[i - 1].dur)
          << "item span nested inside another on tid " << tid;
    }
  }
}

}  // namespace
}  // namespace ad::driver
