// Contention-profiler overhead: the profiler must be cheap enough to leave
// on for any diagnostic run.
//
// Both legs run the identical workload — the six-code suite analyzed at
// H in {1, 4, 8} through the batched engine at 8 requested workers, cold
// proof memo per repetition. The only difference between the legs is
// obs::profiler().enable(). The legs run in 101 off/on pairs, alternating
// which leg goes first, and the overhead is the median of the pairs' on/off
// ratios: one leg takes tens of ms at 8 workers, so a burst of load on a
// shared host can slow any single leg by tens of percent, and a best-of per
// leg compares two different moments; a pair's two legs share their moment,
// and the median ignores the pairs a burst split.
//
// Emits BENCH_contention.json (schema ad.bench.contention.v1):
//   { "reps": 101, "off_ms": ..., "on_ms": ..., "overhead_pct": ...,
//     "profile": {ad.profile.v1 of the last profiled rep} }
// where reps counts the pairs and off_ms / on_ms are the legs' medians.
//
// Acceptance (checked here, nonzero exit on failure):
//   - median paired profiler overhead < 5% on the six-code suite,
//   - the profiled leg produced non-empty per-thread rows.
#include <algorithm>
#include <chrono>
#include <sstream>
#include <vector>

#include "bench_util.hpp"
#include "codes/suite.hpp"
#include "driver/pipeline.hpp"
#include "locality/analysis.hpp"
#include "obs/profiler.hpp"
#include "symbolic/intern.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

struct Workload {
  std::vector<ad::ir::Program> programs;  ///< stable addresses
  std::vector<ad::driver::BatchItem> batch;
};

Workload makeWorkload() {
  Workload w;
  const auto& suite = ad::codes::benchmarkSuite();
  w.programs.reserve(suite.size());
  for (const auto& info : suite) w.programs.push_back(info.build());
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
  return w;
}

/// One timed repetition (cold memo). Returns milliseconds.
double runOnce(const Workload& w) {
  ad::sym::ProofMemo::global().clear();
  ad::loc::clearPhaseArrayMemo();
  const auto start = Clock::now();
  const auto results = ad::driver::analyzeBatch(w.batch, 8);
  const double ms = msSince(start);
  for (const auto& res : results) {
    if (!res.has_value()) return -1.0;  // poisoned run: caller fails the check
  }
  return ms;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return -1.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

}  // namespace

int main() {
  using namespace ad;
  constexpr int kPairs = 101;
  bench::Reporter r("Contention profiler overhead (six-code suite, jobs=8, median of " +
                    std::to_string(kPairs) + " paired ratios)");

  const Workload w = makeWorkload();

  std::vector<double> offMs;
  std::vector<double> onMs;
  std::vector<double> ratios;
  std::string profileJson;
  bool allOk = true;
  sym::ProofMemoEnabledGuard memoOn(true);
  for (int pair = 0; pair < kPairs; ++pair) {
    double off = -1.0;
    double on = -1.0;
    const auto runOff = [&] {
      obs::profiler().disable();
      off = runOnce(w);
    };
    const auto runOn = [&] {
      obs::profiler().reset();
      obs::profiler().enable();
      on = runOnce(w);
      obs::profiler().disable();
      profileJson = obs::profiler().summary();
    };
    // Alternate the leading leg so drift within a pair favours neither.
    if (pair % 2 == 0) {
      runOff();
      runOn();
    } else {
      runOn();
      runOff();
    }
    allOk = allOk && off > 0.0 && on >= 0.0;
    if (off > 0.0 && on >= 0.0) {
      offMs.push_back(off);
      onMs.push_back(on);
      ratios.push_back(on / off);
    }
  }
  r.checkTrue("all repetitions analyzed the full batch", allOk);

  const double offMedian = median(offMs);
  const double onMedian = median(onMs);
  const double overheadPct = (median(ratios) - 1.0) * 100.0;
  {
    std::ostringstream line;
    line << "profiler off: " << offMedian << " ms, on: " << onMedian
         << " ms (leg medians); median paired overhead " << overheadPct << "%";
    r.note(line.str());
  }
  r.checkTrue("profiler overhead < 5% (got " + std::to_string(overheadPct) + "%)",
              overheadPct < 5.0);
  r.checkTrue("profiled leg produced per-thread rows",
              profileJson.find("\"tasks\"") != std::string::npos);

  std::ostringstream json;
  json << "{\n  \"schema\": \"ad.bench.contention.v1\",\n";
  json << "  \"reps\": " << kPairs << ",\n";
  json << "  \"off_ms\": " << offMedian << ",\n  \"on_ms\": " << onMedian << ",\n";
  json << "  \"overhead_pct\": " << overheadPct << ",\n";
  json << "  \"profile\": " << (profileJson.empty() ? "{}" : profileJson) << "\n}\n";
  if (!bench::writeTextFile("BENCH_contention.json", json.str())) return EXIT_FAILURE;
  r.note("wrote BENCH_contention.json");

  return r.finish();
}
