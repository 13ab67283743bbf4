// Empirical validation of the Theorem-1/2 locality predictions.
//
// For every suite code and P in {1, 4, 8} simulated processors, replays the
// derived execution plan on the trace replay (every access, charged to its
// simulated processor) and cross-checks the observed local/remote traffic
// against the LCG's edge labels. A single disagreement on any non-uncoupled
// edge fails the bench.
//
// Also emits BENCH_sim.json with per-code replay rates (accesses/sec) and
// local fractions, the raw material for scaling plots; BENCH_sim_metrics.json
// with the cumulative ad.metrics.v1 document over all runs; and
// BENCH_obs.json with the per-stage wall-time breakdown aggregated from the
// tracer's spans — the perf trajectory of every pipeline stage.
#include <fstream>
#include <iomanip>
#include <sstream>
#include <vector>

#include "bench_util.hpp"
#include "codes/suite.hpp"
#include "codes/tfft2.hpp"
#include "driver/pipeline.hpp"
#include "obs/obs.hpp"

namespace {

struct Run {
  std::int64_t processors = 0;
  std::int64_t accesses = 0;
  double accessesPerSecond = 0.0;
  double localFraction = 0.0;
  std::int64_t edgesChecked = 0;
  std::int64_t edgesAgree = 0;
  bool validated = false;
};

struct CodeResult {
  std::string name;
  std::map<std::string, std::int64_t> params;
  std::vector<Run> runs;
};

std::string toJson(const std::vector<CodeResult>& results) {
  std::ostringstream os;
  os << std::setprecision(6);
  os << "{\n  \"benchmark\": \"sim_validation\",\n  \"codes\": [\n";
  for (std::size_t c = 0; c < results.size(); ++c) {
    const auto& r = results[c];
    os << "    {\n      \"name\": \"" << r.name << "\",\n      \"params\": {";
    bool first = true;
    for (const auto& [k, v] : r.params) {
      os << (first ? "" : ", ") << "\"" << k << "\": " << v;
      first = false;
    }
    os << "},\n      \"runs\": [\n";
    for (std::size_t i = 0; i < r.runs.size(); ++i) {
      const auto& run = r.runs[i];
      os << "        {\"processors\": " << run.processors << ", \"accesses\": " << run.accesses
         << ", \"accesses_per_sec\": " << run.accessesPerSecond
         << ", \"local_fraction\": " << run.localFraction
         << ", \"edges_checked\": " << run.edgesChecked
         << ", \"edges_agree\": " << run.edgesAgree
         << ", \"validated\": " << (run.validated ? "true" : "false") << "}"
         << (i + 1 < r.runs.size() ? "," : "") << "\n";
    }
    os << "      ]\n    }" << (c + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

std::string stageBreakdownJson(const std::map<std::string, ad::obs::SpanStats>& stats) {
  std::ostringstream os;
  os << "{\n  \"benchmark\": \"obs_stage_breakdown\",\n  \"stages\": [\n";
  bool first = true;
  for (const auto& [name, st] : stats) {
    os << (first ? "" : ",\n") << "    {\"name\": \"" << name << "\", \"count\": " << st.count
       << ", \"total_us\": " << st.totalUs << "}";
    first = false;
  }
  os << "\n  ]\n}\n";
  return os.str();
}

}  // namespace

int main() {
  using namespace ad;
  bench::Reporter rep("Trace-simulator validation of Theorem 1/2 (all codes, P in {1,4,8})");

  // Span collection across every run feeds the per-stage breakdown below.
  obs::tracer().enable();

  const std::vector<std::int64_t> processorCounts = {1, 4, 8};
  std::vector<CodeResult> results;

  for (const auto& code : codes::benchmarkSuite()) {
    const ir::Program program = code.build();
    CodeResult cr;
    cr.name = code.name;
    cr.params = code.simParams;

    for (const std::int64_t H : processorCounts) {
      driver::PipelineConfig config;
      config.params = codes::bindParams(program, code.simParams);
      config.processors = H;
      config.simulateBaseline = false;
      config.validate = driver::ValidateMode::kTrace;

      const auto result = driver::analyzeAndSimulate(program, config);
      Run run;
      run.processors = H;
      run.accesses = result.trace->totalAccesses;
      run.accessesPerSecond = result.trace->accessesPerSecond();
      run.localFraction = result.trace->observed.localFraction();
      run.edgesChecked = result.localityCheck->checked;
      run.edgesAgree = result.localityCheck->checked - result.localityCheck->disagreements;
      run.validated = result.localityCheck->ok();
      cr.runs.push_back(run);

      std::ostringstream what;
      what << code.name << " H=" << H << ": " << run.edgesAgree << "/" << run.edgesChecked
           << " edges agree, local fraction " << std::setprecision(4) << run.localFraction;
      rep.checkTrue(what.str(), run.validated);
      if (!run.validated) {
        for (const auto& line : result.localityCheck->str()) std::cout << line;
      }
    }
    results.push_back(std::move(cr));
  }

  if (bench::writeTextFile("BENCH_sim.json", toJson(results))) {
    rep.note("wrote BENCH_sim.json");
  }
  if (bench::writeTextFile("BENCH_sim_metrics.json", obs::metrics().toJson())) {
    rep.note("wrote BENCH_sim_metrics.json (cumulative over all codes and P)");
  }
  const auto stats = obs::tracer().statsByName();
  rep.checkTrue("tracer collected pipeline-stage spans", stats.count("pipeline.ilp_solve") > 0 &&
                                                             stats.count("pipeline.trace_sim") > 0);
  if (bench::writeTextFile("BENCH_obs.json", stageBreakdownJson(stats))) {
    rep.note("wrote BENCH_obs.json (per-stage wall-time breakdown)");
  }
  return rep.finish();
}
