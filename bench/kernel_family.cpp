// AI/HPC kernel workload family: full-pipeline locality results under both
// binding classes, gated by the differential oracle pair.
//
// The four kernels (codes/kernels.hpp) are the AutoLALA-style loop nests the
// descriptor algebra is judged on: tiled matmul, K x K sliding-window conv,
// blocked attention, and a time-tiled batched stencil. Each runs the whole
// pipeline at H in {1, 4, 8} under --validate=both (enumerating simulator vs
// closed-form symbolic oracle), twice per kernel: once with the deliberately
// non-power-of-two small sizes and once with the power-of-two sim sizes.
// Nothing in the locality structure may depend on the binding class.
//
// Checked here (nonzero exit on failure):
//   - both oracles agree exactly on every run (24 differential pairs);
//   - the Theorem-1/2 locality check passes on every run;
//   - the derived plan never loses to the naive BLOCK baseline (<= 1.05x);
//   - the C-edge count matches the kernel's documented communication
//     structure (matmul 1, conv2d 0, attention 2, stencil_tt 0) under BOTH
//     binding classes — a pow2-only simplification that changed the LCG
//     would trip this.
//
// Emits BENCH_kernels.json (schema ad.bench.kernels.v1), diffed against
// bench/baselines/BENCH_kernels.json by scripts/bench_compare.py
// (compare_kernels): every structural metric is exact, so a drifted halo
// width, region count or redistribution shows up as a readable failure.
#include <cstdint>
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
  double localFraction = 0.0;
  std::size_t commEdges = 0;
  std::size_t redistributions = 0;
  std::int64_t closedFormRegions = 0;
  double plannedTime = 0.0;
  double naiveTime = 0.0;
  bool agrees = false;       ///< the two oracles produced identical traces
  bool localityOk = false;   ///< Theorem-1/2 check against the observed trace
};

struct Binding {
  std::string className;  ///< "nonpow2" | "pow2"
  std::map<std::string, std::int64_t> params;
  std::vector<Run> runs;
};

struct KernelResult {
  std::string name;
  std::vector<Binding> bindings;
};

std::string toJson(const std::vector<KernelResult>& results) {
  std::ostringstream os;
  os << std::setprecision(12);
  os << "{\n  \"schema\": \"ad.bench.kernels.v1\",\n  \"kernels\": [\n";
  for (std::size_t k = 0; k < results.size(); ++k) {
    const auto& kr = results[k];
    os << "    {\n      \"name\": \"" << kr.name << "\",\n      \"bindings\": [\n";
    for (std::size_t b = 0; b < kr.bindings.size(); ++b) {
      const auto& binding = kr.bindings[b];
      os << "        {\"class\": \"" << binding.className << "\", \"params\": {";
      bool first = true;
      for (const auto& [key, value] : binding.params) {
        os << (first ? "" : ", ") << "\"" << key << "\": " << value;
        first = false;
      }
      os << "},\n         \"runs\": [\n";
      for (std::size_t i = 0; i < binding.runs.size(); ++i) {
        const auto& run = binding.runs[i];
        os << "           {\"processors\": " << run.processors
           << ", \"accesses\": " << run.accesses
           << ", \"local_fraction\": " << run.localFraction
           << ", \"comm_edges\": " << run.commEdges
           << ", \"redistributions\": " << run.redistributions
           << ", \"closed_form_regions\": " << run.closedFormRegions
           << ", \"planned_time\": " << run.plannedTime
           << ", \"naive_time\": " << run.naiveTime << ", \"differential\": \""
           << (run.agrees ? "agree" : "MISMATCH") << "\", \"locality_check\": \""
           << (run.localityOk ? "ok" : "FAILED") << "\"}"
           << (i + 1 < binding.runs.size() ? "," : "") << "\n";
      }
      os << "         ]}" << (b + 1 < kr.bindings.size() ? "," : "") << "\n";
    }
    os << "      ]\n    }" << (k + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace

int main() {
  using namespace ad;
  bench::Reporter rep(
      "AI/HPC kernel family: differential validation under pow2 and non-pow2 bindings");

  // name -> documented C-edge count at H = 8 (see codes/kernels.hpp and the
  // structural tests in tests/codes_test.cpp): matmul pays one C edge each
  // for A and B, attention one each for K and V; conv2d's halo and the
  // stencil's batch-local chains are communication-free. H = 1 runs always
  // label every edge L (one processor owns everything), so the structural
  // check reads the H = 8 run.
  const std::map<std::string, std::size_t> expectedCommEdges = {
      {"matmul", 2}, {"conv2d", 0}, {"attention", 2}, {"stencil_tt", 0}};
  const std::vector<std::int64_t> processorCounts = {1, 4, 8};

  std::vector<KernelResult> results;
  for (const auto& code : codes::benchmarkSuite()) {
    if (!expectedCommEdges.count(code.name)) continue;
    const ir::Program program = code.build();
    KernelResult kr;
    kr.name = code.name;

    const std::vector<std::pair<std::string, const std::map<std::string, std::int64_t>*>>
        bindingClasses = {{"nonpow2", &code.smallParams}, {"pow2", &code.simParams}};
    for (const auto& [className, params] : bindingClasses) {
      Binding binding;
      binding.className = className;
      binding.params = *params;
      for (const std::int64_t H : processorCounts) {
        driver::PipelineConfig config;
        config.params = codes::bindParams(program, *params);
        config.processors = H;
        config.validate = driver::ValidateMode::kBoth;
        const auto result = driver::analyzeAndSimulate(program, config);

        Run run;
        run.processors = H;
        run.accesses = result.symbolic->totalAccesses;
        run.localFraction = result.symbolic->observed.localFraction();
        run.commEdges = result.lcg.communicationEdges();
        run.redistributions = result.planned.redistributions.size();
        run.closedFormRegions = result.symbolic->closedFormRegions;
        run.plannedTime = result.planned.parallelTime();
        run.naiveTime = result.naive.parallelTime();
        run.agrees = result.symbolicAgrees();
        run.localityOk = result.localityCheck && result.localityCheck->ok();
        binding.runs.push_back(run);

        std::ostringstream what;
        what << code.name << " [" << className << "] H=" << H << ": " << run.accesses
             << " accesses, local fraction " << std::setprecision(4) << run.localFraction
             << ", " << run.commEdges << " C edges, " << run.redistributions
             << " redistributions";
        rep.checkTrue(what.str() + " — oracles agree", run.agrees);
        if (!run.agrees) rep.note("  " + result.symbolicDifference);
        rep.checkTrue(code.name + " [" + className + "] H=" + std::to_string(H) +
                          " Theorem-1/2 locality check",
                      run.localityOk);
        rep.checkTrue(code.name + " [" + className + "] H=" + std::to_string(H) +
                          " plan beats (or matches) the BLOCK baseline",
                      run.plannedTime <= run.naiveTime * 1.05);
      }
      rep.check(code.name + " [" + className + "] C edges at H=8",
                expectedCommEdges.at(code.name), binding.runs.back().commEdges);
      kr.bindings.push_back(std::move(binding));
    }
    results.push_back(std::move(kr));
  }

  rep.checkTrue("all four kernels ran under both binding classes", results.size() == 4);

  if (bench::writeTextFile("BENCH_kernels.json", toJson(results))) {
    rep.note("wrote BENCH_kernels.json");
  }
  return rep.finish();
}
