// Request-level benchmark: shared types (see README.md).
//
// One request is an ADL program (or a suite code built in C++) plus its
// parameter bindings plus H; it goes through the pipeline and a golden comes
// out. The corpus functions define every request the workloads send, the
// digest file pins each fixed request's outputs as of the commit that
// generated it, and checkRequest() is the single correctness verdict used by
// the timed, traced and digest-writing paths alike.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "driver/pipeline.hpp"

namespace adbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

struct RequestSpec {
  std::string key;     ///< stable identity: label, bindings, H and simulate flag
  std::string source;  ///< ADL text; empty for suite codes built in C++
  std::function<ad::ir::Program()> build;  ///< set when source is empty
  std::map<std::string, std::int64_t> params;
  std::int64_t processors = 1;
  bool simulate = false;  ///< plan and naive BLOCK baseline on the DSM model
  ad::driver::ValidateMode validate = ad::driver::ValidateMode::kNone;
  bool fresh = false;       ///< seed-drawn program, checked against a reference run
  std::string goldenPath;   ///< byte-compared golden file, when one exists
};

/// A request with its program built and its configuration bound. Programs
/// live behind unique_ptr because every LCG keeps a pointer to its program.
struct Prepared {
  const RequestSpec* spec = nullptr;
  std::unique_ptr<ad::ir::Program> program;
  ad::driver::PipelineConfig config;
};

[[nodiscard]] std::string requestKey(const std::string& label,
                                     const std::map<std::string, std::int64_t>& params,
                                     std::int64_t processors, bool simulate);

/// The pipeline configuration of `spec` bound against `program` (jobs = 1).
[[nodiscard]] ad::driver::PipelineConfig configFor(const RequestSpec& spec,
                                                  const ad::ir::Program& program);
/// Builds or parses the program and binds the configuration.
[[nodiscard]] Prepared prepare(const RequestSpec& spec);

[[nodiscard]] const char* validateName(ad::driver::ValidateMode mode);

// --- corpora ---------------------------------------------------------------

/// compile_cold: bench/analysis_scaling's 174-config analysis-only batch.
[[nodiscard]] std::vector<RequestSpec> compileColdCorpus();
/// n_sweep: TFFT2 at P=Q in {32,64}, H=64 and stencil families 4 and 5 at
/// N in {64,128,256}, H=16; simulated, validate=symbolic.
[[nodiscard]] std::vector<RequestSpec> nSweepCorpus();
/// service_mix fixed corpus: generated stencils, the ADL twins (read from
/// perfbench/adl/), the pow2 butterflies.
[[nodiscard]] std::vector<RequestSpec> serviceCorpus();
/// service_mix fresh program `index` of the stream drawn from `seed`: a halo
/// stencil whose three widths are a bijection of the index, so no two fresh
/// programs of one seed are alike.
[[nodiscard]] RequestSpec freshRequest(std::uint64_t seed, std::uint64_t index);

// --- deterministic randomness --------------------------------------------

[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);
/// Seeded Fisher-Yates shuffle.
template <typename T>
void shuffle(std::vector<T>& items, std::uint64_t seed) {
  std::uint64_t state = seed;
  for (std::size_t i = items.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(splitmix64(state) % i);
    std::swap(items[i - 1], items[j]);
  }
}

// --- references ------------------------------------------------------------

[[nodiscard]] std::uint64_t fnv1a(const std::string& text);
[[nodiscard]] std::string hex64(std::uint64_t v);
/// Canonical text of a DSM cost-model result: integer counts exactly,
/// times to nine significant digits.
[[nodiscard]] std::string simulationText(const ad::dsm::SimulationResult& sim);

struct Digest {
  std::string golden;  ///< hex fnv1a of the golden text
  std::string sim;     ///< hex fnv1a of planned + naive simulationText, or "-"
};

class Digests {
 public:
  /// Loads `path` (tab-separated key, golden, sim). False when unreadable.
  bool load(const std::string& path);
  [[nodiscard]] const Digest* find(const std::string& key) const;

 private:
  std::map<std::string, Digest> entries_;
};

[[nodiscard]] Digest digestOf(const ad::driver::PipelineResult& result,
                              const std::string& golden, bool simulate);

/// Reads a whole file; nullopt when missing.
[[nodiscard]] std::optional<std::string> readFile(const std::string& path);

/// Correctness verdict of one request: empty when the output is right,
/// otherwise the reason. Checks the degradation ledger, the Theorem-1/2
/// report, the two-oracle differential, then the golden (byte-compared with
/// spec.goldenPath's text when given, else by digest) and, when simulated,
/// the cost-model result.
[[nodiscard]] std::string checkRequest(const RequestSpec& spec,
                                       const ad::driver::PipelineResult& result,
                                       const std::string& golden, const Digests& digests,
                                       const std::map<std::string, std::string>& goldenFiles);

/// Drops the proof memo and the phase-array memo, so the next analysis pays
/// the cold cost a fresh process pays.
void clearCaches();

// --- results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< sample count behind a percentile or median
};

struct Outcome {
  std::vector<Metric> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;  ///< any entry makes the run incorrect
  std::vector<std::string> notes;     ///< printed with the stamp

  void add(std::string name, double value, std::string unit, std::size_t samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void fail(std::string what) {
    if (problems.size() < 20) problems.push_back(std::move(what));
  }
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::size_t nproc = 1;
  Clock::time_point processStart;
};

/// Nearest-rank percentile (p in (0, 1]); `samples` is sorted in place.
[[nodiscard]] double percentile(std::vector<double>& samples, double p);
[[nodiscard]] double median(std::vector<double> samples);
/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peakRssMb();

/// The timed run (tracing off): every end-to-end metric.
[[nodiscard]] Outcome runTimed(const RunOptions& options, const Digests& digests);
/// The traced run: every per-layer metric.
[[nodiscard]] Outcome runTraced(const RunOptions& options, const Digests& digests);
/// Runs every fixed request once and writes the digest file.
[[nodiscard]] int writeDigests(const std::string& path);

/// Paths relative to the checkout root, the working directory of every run.
inline constexpr const char* kDigestPath = "perfbench/digests.tsv";
inline constexpr const char* kAdlDir = "perfbench/adl";
inline constexpr const char* kRunDir = ".bench_build/run";  ///< AF_UNIX socket

}  // namespace adbench
