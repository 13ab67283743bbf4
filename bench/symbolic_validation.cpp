// Closed-form symbolic validation at paper scale.
//
// The enumerating trace replay is O(accesses): exact, but it cannot reach
// the problem sizes the paper analyzes at P = 1024. The symbolic
// validator computes the identical observed trace in O(descriptor regions).
// This bench demonstrates both claims:
//
//   - differential: at P in {4, 8} both oracles run and must agree exactly
//     (the same invariant tests/symval_test.cpp enforces);
//   - scale: at P in {64, 1024} only the symbolic oracle runs; its wall time
//     must stay under 100 ms per code at P = 64, and BENCH_symval.json
//     records it next to the trace replay's extrapolated cost (accesses
//     divided by the serial replay's accesses/sec at the last differential
//     P).
//
// Emits BENCH_symval.json, consumed by `scripts/ci.sh symval`.
#include <iomanip>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "codes/suite.hpp"
#include "driver/pipeline.hpp"

namespace {

struct Run {
  std::int64_t processors = 0;
  std::int64_t accesses = 0;
  double symvalSeconds = 0.0;
  double simExtrapolatedSeconds = 0.0;  ///< accesses / serial replay rate
  double localFraction = 0.0;
  std::int64_t closedFormRegions = 0;
  std::int64_t enumeratedRegions = 0;
  bool differentialRan = false;  ///< both oracles ran (P in {4, 8})
  bool agrees = false;           ///< traces byte-identical (differential runs only)
};

struct CodeResult {
  std::string name;
  std::map<std::string, std::int64_t> params;
  std::vector<Run> runs;
};

std::string toJson(const std::vector<CodeResult>& results) {
  std::ostringstream os;
  os << std::setprecision(6);
  os << "{\n  \"benchmark\": \"symbolic_validation\",\n  \"codes\": [\n";
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
         << ", \"symval_seconds\": " << run.symvalSeconds
         << ", \"sim_extrapolated_seconds\": " << run.simExtrapolatedSeconds
         << ", \"local_fraction\": " << run.localFraction
         << ", \"closed_form_regions\": " << run.closedFormRegions
         << ", \"enumerated_regions\": " << run.enumeratedRegions << ", \"differential\": "
         << (run.differentialRan ? (run.agrees ? "\"agree\"" : "\"MISMATCH\"") : "null") << "}"
         << (i + 1 < r.runs.size() ? "," : "") << "\n";
    }
    os << "      ]\n    }" << (c + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace

int main() {
  using namespace ad;
  bench::Reporter rep("Symbolic validation: differential at P in {4,8}, closed form to P=1024");

  const std::vector<std::int64_t> processorCounts = {4, 8, 64, 1024};
  std::vector<CodeResult> results;

  for (const auto& code : codes::benchmarkSuite()) {
    const ir::Program program = code.build();
    CodeResult cr;
    cr.name = code.name;
    cr.params = code.simParams;
    double replayRate = 0.0;  // serial trace replay accesses/sec, P <= 8

    for (const std::int64_t H : processorCounts) {
      const bool differential = H <= 8;  // the replay enumerates every access
      driver::PipelineConfig config;
      config.params = codes::bindParams(program, code.simParams);
      config.processors = H;
      config.simulatePlan = false;
      config.simulateBaseline = false;
      config.validate =
          differential ? driver::ValidateMode::kBoth : driver::ValidateMode::kSymbolic;

      const auto result = driver::analyzeAndSimulate(program, config);
      Run run;
      run.processors = H;
      run.accesses = result.symbolic->totalAccesses;
      run.symvalSeconds = result.symbolic->wallSeconds;
      run.localFraction = result.symbolic->observed.localFraction();
      run.closedFormRegions = result.symbolic->closedFormRegions;
      run.enumeratedRegions = result.symbolic->enumeratedRegions;
      run.differentialRan = differential;
      run.agrees = differential && result.symbolicAgrees();
      if (differential && result.trace->accessesPerSecond() > 0.0) {
        replayRate = result.trace->accessesPerSecond();
      }
      if (replayRate > 0.0) {
        run.simExtrapolatedSeconds = static_cast<double>(run.accesses) / replayRate;
      }
      cr.runs.push_back(run);

      std::ostringstream what;
      what << code.name << " H=" << H << ": " << run.accesses << " accesses in "
           << std::setprecision(3) << run.symvalSeconds * 1e3 << " ms ("
           << run.closedFormRegions << " closed-form regions, " << run.enumeratedRegions
           << " enumerated)";
      if (differential) {
        what << (run.agrees ? " — oracles agree" : " — ORACLE MISMATCH");
        rep.checkTrue(what.str(), run.agrees);
        if (!run.agrees) rep.note("  " + result.symbolicDifference);
      } else {
        rep.note(what.str());
      }
      if (H == 64) {
        std::ostringstream bound;
        bound << code.name << " H=64 symbolic validation under 100 ms ("
              << std::setprecision(3) << run.symvalSeconds * 1e3 << " ms)";
        rep.checkTrue(bound.str(), run.symvalSeconds < 0.100);
      }
    }
    results.push_back(std::move(cr));
  }

  if (bench::writeTextFile("BENCH_symval.json", toJson(results))) {
    rep.note("wrote BENCH_symval.json");
  }
  return rep.finish();
}
