// Batched analysis engine scaling on a 130-code workload: the memoized
// batched engine at 1/2/4/8 worker threads, cold and warm.
//
// Workload: the ten-code benchmark suite (six 1999 codes + the AI/HPC kernel
// family) analyzed at H in {1, 4, 8} (30 pipeline configs), plus the four
// kernels again under their power-of-two bindings at the same H values (12
// configs — both binding classes must exercise the same memoized algebra),
// plus 114 generated stencil codes (bench/workload_gen.hpp
// — six shared stride/offset families, rotated per variant) analyzed at H=4,
// plus 6 pow2 butterfly codes (TFFT2's cost class: 2^(l-1) subscripts that
// are expensive for the prover, composed from a six-kernel shared pool)
// analyzed at H in {1, 4, 8}. Analysis only — LCG construction, ILP, plan
// derivation and communication generation, no DSM replay. Each cold leg
// starts from a cold proof memo and phase-array memo, so its time combines
// memoized descriptor algebra (the stride families recur across arrays,
// phases, codes, and processor counts) with the phase-array result memo
// (structurally identical phases analyze once, wherever they appear) and
// parallel per-(phase,array) analysis. Each leg runs kReps times and keeps
// its fastest run.
//
// Every gated number is a ratio within this run or an exact work count:
//   - parallel_speedup[jobs=N] = best jobs=1 time / best jobs=N time;
//   - warm_speedup = best cold jobs=8 time / best warm jobs=8 time (the warm
//     legs rerun against the cold leg's caches: the gap is the cost of cache
//     misses, the warm time the floor of non-memoizable per-config work);
//   - work = proof-memo and phase-memo hits and misses, the proof-memo
//     context count, and communication schedule, message and word counts
//     of a cold serial pass (each item in turn on this thread, memo on, no
//     pool: the jobs=1 work, without the joining thread's races; the bench
//     checks that every serial pass repeats them exactly).
// "legacy_ms" is the pre-batching engine (proof memo disabled, no pool, one
// config at a time); it is reported, with each leg's vs_legacy ratio, but
// never gated: it runs the same algebra, so it speeds up with the prover.
//
// The diagnostic jobs=8 leg runs with the contention profiler and tracer
// enabled and reports where its wall-clock went: per-stage span totals
// (pipeline.lcg, pipeline.ilp_solve, ...) and the ad.profile.v1 per-thread work/wait
// split are printed and embedded in the artifact.
//
// Emits BENCH_analysis.json (schema ad.bench.analysis.v3):
//   { "workload": {...}, "legacy_ms": ..., "serial_ms": ...,
//     "runs": [{"jobs": J, "ms": ..., "parallel_speedup": ..., "vs_legacy": ...} ...],
//     "warm": {"jobs": 8, "ms": ..., "warm_speedup": ...},
//     "work": {"proof_hits": ..., "proof_misses": ..., "phase_hits": ...,
//              "phase_misses": ..., "comm_schedules": ..., "comm_messages": ...,
//              "comm_words": ..., "proof_contexts": ...},
//     "tfft2": {"hits": ..., "misses": ..., "hit_rate": ...},
//     "stages": [{"name": ..., "count": ..., "total_us": ...} ...],
//     "profile": {ad.profile.v1} }
//
// Acceptance (checked here, nonzero exit on failure):
//   - every cold serial pass repeats the same work counts,
//   - the warm jobs=8 leg is faster than the cold one,
//   - > 50% proof-memo hit rate on the TFFT2 segment.
#include <chrono>
#include <sstream>
#include <vector>

#include "bench_util.hpp"
#include "codes/suite.hpp"
#include "codes/tfft2.hpp"
#include "driver/pipeline.hpp"
#include "frontend/parser.hpp"
#include "locality/analysis.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "symbolic/intern.hpp"
#include "workload_gen.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

constexpr int kReps = 5;  // runs per leg; the fastest is reported

constexpr std::size_t kGenFamilies = 6;
constexpr std::size_t kGenVariants = 19;  // 6 * 19 = 114 generated stencils

struct Workload {
  std::vector<ad::ir::Program> programs;  ///< stable addresses
  std::vector<ad::driver::BatchItem> batch;
  std::size_t codes = 0;
  std::size_t generated = 0;
};

Workload makeWorkload() {
  Workload w;
  const auto& suite = ad::codes::benchmarkSuite();
  w.programs.reserve(suite.size() + kGenFamilies * kGenVariants + ad::bench::kPow2Variants);
  for (const auto& info : suite) w.programs.push_back(info.build());
  // Suite codes at three processor counts (the original scaling workload).
  for (const std::int64_t h : {1, 4, 8}) {
    for (std::size_t i = 0; i < suite.size(); ++i) {
      ad::driver::BatchItem item;
      item.program = &w.programs[i];
      item.label = suite[i].name;
      item.config.params = ad::codes::bindParams(w.programs[i], suite[i].smallParams);
      item.config.processors = h;
      item.config.simulatePlan = false;
      item.config.simulateBaseline = false;
      w.batch.push_back(std::move(item));
    }
  }
  // The kernel family again under its power-of-two bindings (the suite's
  // smallParams are deliberately non-pow2): same programs, different
  // parameter values, so the pow2 class rides the same memoized descriptors.
  for (const std::int64_t h : {1, 4, 8}) {
    for (std::size_t i = 0; i < suite.size(); ++i) {
      const auto& info = suite[i];
      if (info.name != "matmul" && info.name != "conv2d" && info.name != "attention" &&
          info.name != "stencil_tt") {
        continue;
      }
      ad::driver::BatchItem item;
      item.program = &w.programs[i];
      item.label = info.name + "_pow2";
      item.config.params = ad::codes::bindParams(w.programs[i], info.simParams);
      item.config.processors = h;
      item.config.simulatePlan = false;
      item.config.simulateBaseline = false;
      w.batch.push_back(std::move(item));
    }
  }
  // Generated stencil codes, one config each at H=4.
  for (std::size_t f = 0; f < kGenFamilies; ++f) {
    for (std::size_t v = 0; v < kGenVariants; ++v) {
      w.programs.push_back(
          ad::frontend::parseProgram(ad::bench::generateStencilSource(f, v)));
      ad::driver::BatchItem item;
      item.program = &w.programs.back();
      item.label = ad::bench::generatedLabel(f, v);
      item.config.params = ad::codes::bindParams(w.programs.back(), {{"N", 64}});
      item.config.processors = 4;
      item.config.simulatePlan = false;
      item.config.simulateBaseline = false;
      w.batch.push_back(std::move(item));
      ++w.generated;
    }
  }
  // Pow2 butterfly codes at three processor counts: individually expensive
  // for the serial engine, near-free for the memoized one (shared kernels).
  {
    const std::size_t first = w.programs.size();
    for (std::size_t v = 0; v < ad::bench::kPow2Variants; ++v) {
      w.programs.push_back(ad::frontend::parseProgram(ad::bench::generatePow2Source(v)));
      ++w.generated;
    }
    for (const std::int64_t h : {1, 4, 8}) {
      for (std::size_t v = 0; v < ad::bench::kPow2Variants; ++v) {
        ad::driver::BatchItem item;
        item.program = &w.programs[first + v];
        item.label = ad::bench::pow2Label(v);
        item.config.params = ad::codes::bindParams(w.programs[first + v], {{"N", 64}});
        item.config.processors = h;
        item.config.simulatePlan = false;
        item.config.simulateBaseline = false;
        w.batch.push_back(std::move(item));
      }
    }
  }
  w.codes = suite.size() + w.generated;
  return w;
}

}  // namespace

int main() {
  using namespace ad;
  bench::Reporter r(
      "Batched analysis engine scaling (ten-code suite x H in {1,4,8}, kernel pow2 "
      "bindings + 120 generated codes)");

  const Workload w = makeWorkload();
  r.note("workload: " + std::to_string(w.codes) + " codes (" + std::to_string(w.generated) +
         " generated), " + std::to_string(w.batch.size()) + " configs");

  // The legacy engine — no memo, no pool, one item at a time. Reported only.
  double legacyMs = 0.0;
  {
    sym::ProofMemoEnabledGuard off(false);
    const auto start = Clock::now();
    std::size_t done = 0;
    for (const auto& item : w.batch) {
      const auto result = driver::analyzeAndSimulate(*item.program, item.config);
      done += result.plan.iteration.empty() ? 0 : 1;
    }
    legacyMs = msSince(start);
    r.checkTrue("legacy engine analyzed all " + std::to_string(w.batch.size()) + " configs",
                done == w.batch.size());
  }
  r.note("legacy engine (reported, not gated): " + std::to_string(legacyMs) + " ms");

  obs::Counter& proofHits = obs::metrics().counter("ad.intern.proof_hits");
  obs::Counter& proofMisses = obs::metrics().counter("ad.intern.proof_misses");
  obs::Counter& phaseHits = obs::metrics().counter("ad.loc.phase_hits");
  obs::Counter& phaseMisses = obs::metrics().counter("ad.loc.phase_misses");

  // One batch run: wall time and work counts. jobs=0
  // analyzes the items one after another on this thread, without a pool.
  struct Run {
    double ms = 0.0;
    std::vector<std::pair<std::string, std::int64_t>> work;
  };
  const auto runBatch = [&](std::size_t jobs, bool cold, const std::string& label) {
    sym::ProofMemoEnabledGuard on(true);
    if (cold) {
      sym::ProofMemo::global().clear();  // each cold run earns its own caches
      loc::clearPhaseArrayMemo();
    }
    const std::int64_t hits0 = proofHits.value();
    const std::int64_t misses0 = proofMisses.value();
    const std::int64_t phaseHits0 = phaseHits.value();
    const std::int64_t phaseMisses0 = phaseMisses.value();
    const auto start = Clock::now();
    std::vector<Expected<driver::PipelineResult>> results;
    if (jobs == 0) {
      for (const auto& item : w.batch) {
        results.push_back(driver::analyzeAndSimulateChecked(*item.program, item.config));
      }
    } else {
      results = driver::analyzeBatch(w.batch, jobs);
    }
    Run run;
    run.ms = msSince(start);
    std::int64_t schedules = 0;
    std::int64_t messages = 0;
    std::int64_t words = 0;
    std::size_t done = 0;
    for (const auto& res : results) {
      if (!res.has_value()) continue;
      ++done;
      for (const auto& sched : res->schedules) {
        ++schedules;
        messages += static_cast<std::int64_t>(sched.messageCount());
        words += sched.totalWords();
      }
    }
    if (done != w.batch.size()) r.checkTrue(label + " analyzed all configs", false);
    run.work = {{"proof_hits", proofHits.value() - hits0},
                {"proof_misses", proofMisses.value() - misses0},
                {"phase_hits", phaseHits.value() - phaseHits0},
                {"phase_misses", phaseMisses.value() - phaseMisses0},
                {"comm_schedules", schedules},
                {"comm_messages", messages},
                {"comm_words", words},
                // Cold runs clear the memo first, so this is the run's own
                // context count: one per distinct assumptions set.
                {"proof_contexts", sym::ProofMemo::global().stats().contexts}};
    return run;
  };
  // The fastest of kReps runs; `repeatable` is cleared if their work differs.
  const auto bestOf = [&](std::size_t jobs, bool cold, const std::string& label,
                          bool* repeatable) {
    Run best = runBatch(jobs, cold, label);
    for (int rep = 1; rep < kReps; ++rep) {
      Run run = runBatch(jobs, cold, label);
      if (repeatable != nullptr && run.work != best.work) *repeatable = false;
      if (run.ms < best.ms) best = std::move(run);
    }
    return best;
  };

  // Work counts come from the serial pass: a pool of one worker still has
  // the joining thread helping, so its proof-memo races vary run to run.
  bool repeatable = true;
  const Run serial = bestOf(0, true, "serial pass", &repeatable);
  const auto& work = serial.work;
  r.checkTrue("every cold serial pass repeats the same work counts", repeatable);
  r.note("serial pass: " + std::to_string(serial.ms) + " ms");

  struct Leg {
    std::size_t jobs;
    Run best;
  };
  std::vector<Leg> legs;
  for (const std::size_t jobs : {1u, 2u, 4u, 8u}) {
    legs.push_back({jobs, bestOf(jobs, true, "jobs=" + std::to_string(jobs), nullptr)});
    const Run& best = legs.back().best;
    std::ostringstream line;
    line << "jobs=" << jobs << ": " << best.ms << " ms  (x" << legs[0].best.ms / best.ms
         << " over jobs=1)";
    r.note(line.str());
  }

  // Warm legs: jobs=8 against the caches the last cold jobs=8 run left.
  const Run warm = bestOf(8, false, "warm jobs=8", nullptr);
  const double coldMs8 = legs.back().best.ms;
  const double warmSpeedup = coldMs8 / warm.ms;
  {
    std::ostringstream line;
    line << "jobs=8 warm: " << warm.ms << " ms  (x" << warmSpeedup << " over cold jobs=8)";
    r.note(line.str());
  }
  r.checkTrue("warm jobs=8 leg is faster than the cold one", warmSpeedup > 1.0);

  // Diagnostic leg: jobs=8 again with the contention profiler and tracer on.
  // Kept out of the timing table so profiling overhead never contaminates
  // the timed legs — its job is to answer "where did the time go".
  std::string profileJson;
  std::map<std::string, obs::SpanStats> stageStats;
  {
    sym::ProofMemoEnabledGuard on(true);
    sym::ProofMemo::global().clear();
    loc::clearPhaseArrayMemo();
    obs::profiler().reset();
    obs::profiler().enable();
    obs::tracer().clear();
    obs::tracer().enable();
    const auto results = driver::analyzeBatch(w.batch, 8);
    obs::profiler().disable();
    obs::tracer().disable();
    profileJson = obs::profiler().summary();
    stageStats = obs::tracer().statsByName();
    std::size_t done = 0;
    for (const auto& res : results) done += res.has_value() ? 1 : 0;
    r.checkTrue("profiled diagnostic leg analyzed all configs", done == w.batch.size());
  }

  // Per-stage breakdown of the profiled leg: span totals answer "which stage",
  // the profile's thread rows answer "work or wait". Span totals are summed
  // over all executing threads, so nested spans overlap-count by design.
  r.note("per-stage breakdown (profiled jobs=8 leg):");
  for (const auto& [name, stats] : stageStats) {
    std::ostringstream line;
    line << "  " << name << ": " << stats.count << " spans, " << stats.totalUs / 1000.0
         << " ms total";
    r.note(line.str());
  }

  // TFFT2 cache-locality segment: the running example analyzed at the three
  // processor counts against one cold memo. analyzePhaseArray is
  // H-independent, so the cross-H reuse is exactly what the memo captures.
  sym::ProofMemo::Stats tfft2Stats;
  {
    sym::ProofMemoEnabledGuard on(true);
    sym::ProofMemo::global().clear();
    loc::clearPhaseArrayMemo();
    const ir::Program prog = codes::makeTFFT2();
    for (const std::int64_t h : {1, 4, 8}) {
      driver::PipelineConfig config;
      config.params = codes::bindParams(prog, {{"P", 64}, {"Q", 64}});
      config.processors = h;
      config.simulatePlan = false;
      config.simulateBaseline = false;
      const auto result = driver::analyzeAndSimulate(prog, config);
      (void)result;
    }
    tfft2Stats = sym::ProofMemo::global().stats();
  }
  std::ostringstream hitLine;
  hitLine << "tfft2 memo: " << tfft2Stats.hits << " hits / " << tfft2Stats.misses
          << " misses (rate " << tfft2Stats.hitRate() << ")";
  r.note(hitLine.str());

  r.checkTrue("> 50% proof-memo hit rate on TFFT2 (got " +
                  std::to_string(tfft2Stats.hitRate() * 100.0) + "%)",
              tfft2Stats.hitRate() > 0.5);

  std::ostringstream json;
  json << "{\n  \"schema\": \"ad.bench.analysis.v3\",\n";
  json << "  \"workload\": {\"codes\": " << w.codes << ", \"generated\": " << w.generated
       << ", \"processor_counts\": [1, 4, 8], \"configs\": " << w.batch.size() << "},\n";
  json << "  \"legacy_ms\": " << legacyMs << ",\n  \"serial_ms\": " << serial.ms
       << ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const Run& run = legs[i].best;
    json << "    {\"jobs\": " << legs[i].jobs << ", \"ms\": " << run.ms
         << ", \"parallel_speedup\": " << legs[0].best.ms / run.ms
         << ", \"vs_legacy\": " << legacyMs / run.ms << "}"
         << (i + 1 < legs.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"warm\": {\"jobs\": 8, \"ms\": " << warm.ms
       << ", \"warm_speedup\": " << warmSpeedup << "},\n  \"work\": {";
  for (std::size_t i = 0; i < work.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << work[i].first << "\": " << work[i].second;
  }
  json << "},\n";
  json << "  \"tfft2\": {\"hits\": " << tfft2Stats.hits
       << ", \"misses\": " << tfft2Stats.misses << ", \"hit_rate\": " << tfft2Stats.hitRate()
       << "},\n";
  json << "  \"stages\": [\n";
  {
    std::size_t i = 0;
    for (const auto& [name, stats] : stageStats) {
      json << "    {\"name\": \"" << name << "\", \"count\": " << stats.count
           << ", \"total_us\": " << stats.totalUs << "}"
           << (++i < stageStats.size() ? "," : "") << "\n";
    }
  }
  json << "  ],\n  \"profile\": " << (profileJson.empty() ? "{}" : profileJson) << "\n}\n";
  if (!bench::writeTextFile("BENCH_analysis.json", json.str())) return EXIT_FAILURE;
  r.note("wrote BENCH_analysis.json");

  return r.finish();
}
