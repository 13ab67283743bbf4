// Request corpora, reference digests and the correctness verdict.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "codes/suite.hpp"
#include "codes/tfft2.hpp"
#include "frontend/parser.hpp"
#include "locality/analysis.hpp"
#include "symbolic/intern.hpp"

namespace adbench {

namespace {

// Stencil offset families of bench/analysis_scaling's generated codes: the
// recurring stride shapes (row halos, column halos, five-point star, stride-2
// gather) whose cross-code redundancy the proof memo exploits.
const std::vector<std::vector<std::string>>& offsetFamilies() {
  static const std::vector<std::vector<std::string>> families = {
      {"N*i + j", "N*i + j + 1"},
      {"N*i + j", "N*i + j - 1", "N*i + j + 1"},
      {"N*i + j", "N*i + N + j"},
      {"N*i + j", "N*i - N + j", "N*i + N + j"},
      {"N*i + j", "N*i + j - 1", "N*i + j + 1", "N*i - N + j", "N*i + N + j"},
      {"N*i + 2*j", "N*i + 2*j + 1"},
  };
  return families;
}

constexpr std::size_t kGenFamilies = 6;
constexpr std::size_t kGenVariants = 19;
constexpr std::size_t kPow2Variants = 6;

/// Generated stencil (family, variant): a chain of 2-4 phases over N*N arrays,
/// phase k reading Ak through a rotated slice of the family's offsets and
/// writing A(k+1); every fourth variant is cyclic.
std::string stencilSource(std::size_t family, std::size_t variant) {
  const auto& fam = offsetFamilies()[family];
  const std::size_t phases = 2 + variant % 3;
  std::string src = "param N\n";
  for (std::size_t a = 0; a <= phases; ++a) src += "array A" + std::to_string(a) + "(N*N)\n";
  if (variant % 4 == 0) src += "cyclic\n";
  for (std::size_t k = 0; k < phases; ++k) {
    const std::size_t width = 1 + (variant + k) % fam.size();
    src += "phase S" + std::to_string(k) + " {\n  doall i = 1, N - 2 {\n    do j = 1, N - 2 {\n";
    for (std::size_t o = 0; o <= width; ++o) {
      src += "      read A" + std::to_string(k) + "(" + fam[(variant + k + o) % fam.size()] + ")\n";
    }
    src += "      write A" + std::to_string(k + 1) + "(N*i + j)\n    }\n  }\n";
    if (k % 2 == 0) src += "  work 2.0\n";
    src += "}\n";
  }
  return src;
}

std::string stencilLabel(std::size_t family, std::size_t variant) {
  return "gen.f" + std::to_string(family) + "v" + (variant < 10 ? "0" : "") +
         std::to_string(variant);
}

/// Pow2 butterfly code (TFFT2's cost class): a ping-pong chain over A/B/C
/// whose subscripts carry 2^(l-1) terms, composed from a shared kernel pool.
std::string pow2Source(std::size_t variant) {
  static const char* const names[3] = {"A", "B", "C"};
  const std::size_t phases = 3 + variant % 2;
  std::string src = "pow2param N = 2^n\n";
  for (const char* a : names) src += std::string("array ") + a + "(2*N + 1)\n";
  for (std::size_t t = 0; t < phases; ++t) {
    const std::string in = names[t % 3];
    const std::string out = names[(t + 1) % 3];
    src += "phase S" + std::to_string(t) +
           " {\n  doall i = 0, 3 {\n    do l = 1, n {\n      do j = 0, N - 1 {\n";
    if ((variant + t) % 2 == 0) {
      src += "        read " + in + "(j + 2^(l-1) + i)\n        read " + in +
             "(j + i)\n        write " + out + "(j + i)\n";
    } else {
      src += "        read " + in + "(j + i)\n        write " + out + "(j + 2^(l-1) + i)\n";
    }
    src += "      }\n    }\n  }\n  work " + std::to_string(1 + variant % 5) + ".0\n}\n";
  }
  return src;
}

RequestSpec sourceRequest(const std::string& label, std::string source,
                          std::map<std::string, std::int64_t> params, std::int64_t h,
                          bool simulate, ad::driver::ValidateMode validate) {
  RequestSpec r;
  r.key = requestKey(label, params, h, simulate);
  r.source = std::move(source);
  r.params = std::move(params);
  r.processors = h;
  r.simulate = simulate;
  r.validate = validate;
  return r;
}

RequestSpec codeRequest(const ad::codes::CodeInfo& info, const std::string& label,
                        std::map<std::string, std::int64_t> params, std::int64_t h) {
  RequestSpec r;
  r.key = requestKey(label, params, h, false);
  r.build = info.build;
  r.params = std::move(params);
  r.processors = h;
  return r;
}

bool isKernel(const std::string& name) {
  return name == "matmul" || name == "conv2d" || name == "attention" || name == "stencil_tt";
}

}  // namespace

std::string requestKey(const std::string& label,
                       const std::map<std::string, std::int64_t>& params,
                       std::int64_t processors, bool simulate) {
  std::string key = label + "|";
  bool first = true;
  for (const auto& [name, value] : params) {
    key += (first ? "" : ",") + name + "=" + std::to_string(value);
    first = false;
  }
  return key + "|H=" + std::to_string(processors) + (simulate ? "|sim" : "|nosim");
}

const char* validateName(ad::driver::ValidateMode mode) {
  switch (mode) {
    case ad::driver::ValidateMode::kNone: return "none";
    case ad::driver::ValidateMode::kTrace: return "trace";
    case ad::driver::ValidateMode::kSymbolic: return "symbolic";
    case ad::driver::ValidateMode::kBoth: return "both";
  }
  return "none";
}

ad::driver::PipelineConfig configFor(const RequestSpec& spec, const ad::ir::Program& program) {
  ad::driver::PipelineConfig config;
  config.params = ad::codes::bindParams(program, spec.params);
  config.processors = spec.processors;
  config.simulatePlan = spec.simulate;
  config.simulateBaseline = spec.simulate;
  config.validate = spec.validate;
  config.jobs = 1;
  return config;
}

Prepared prepare(const RequestSpec& spec) {
  Prepared p;
  p.spec = &spec;
  p.program = std::make_unique<ad::ir::Program>(
      spec.source.empty() ? spec.build() : ad::frontend::parseProgram(spec.source));
  p.config = configFor(spec, *p.program);
  return p;
}

std::vector<RequestSpec> compileColdCorpus() {
  const auto& suite = ad::codes::benchmarkSuite();
  std::vector<RequestSpec> corpus;
  for (const std::int64_t h : {1, 4, 8}) {
    for (const auto& info : suite) {
      RequestSpec r = codeRequest(info, info.name, info.smallParams, h);
      // The suite's golden snapshots are exactly these runs at H = 8.
      if (h == 8) r.goldenPath = "tests/golden/" + info.name + ".json";
      corpus.push_back(std::move(r));
    }
  }
  for (const std::int64_t h : {1, 4, 8}) {
    for (const auto& info : suite) {
      if (isKernel(info.name)) {
        corpus.push_back(codeRequest(info, info.name + "_pow2", info.simParams, h));
      }
    }
  }
  for (std::size_t f = 0; f < kGenFamilies; ++f) {
    for (std::size_t v = 0; v < kGenVariants; ++v) {
      corpus.push_back(sourceRequest(stencilLabel(f, v), stencilSource(f, v), {{"N", 64}}, 4,
                                     false, ad::driver::ValidateMode::kNone));
    }
  }
  for (const std::int64_t h : {1, 4, 8}) {
    for (std::size_t v = 0; v < kPow2Variants; ++v) {
      corpus.push_back(sourceRequest("gen.pow2v" + std::to_string(v), pow2Source(v),
                                     {{"N", 64}}, h, false, ad::driver::ValidateMode::kNone));
    }
  }
  return corpus;
}

std::vector<RequestSpec> nSweepCorpus() {
  std::vector<RequestSpec> corpus;
  ad::codes::CodeInfo tfft2;
  tfft2.build = ad::codes::makeTFFT2;
  for (const std::int64_t pq : {32, 64}) {
    RequestSpec r = codeRequest(tfft2, "tfft2", {{"P", pq}, {"Q", pq}}, 64);
    r.simulate = true;
    r.validate = ad::driver::ValidateMode::kSymbolic;
    r.key = requestKey("tfft2", r.params, r.processors, true);
    corpus.push_back(std::move(r));
  }
  for (const std::size_t family : {4u, 5u}) {
    for (const std::int64_t n : {64, 128, 256}) {
      corpus.push_back(sourceRequest(stencilLabel(family, 1), stencilSource(family, 1),
                                     {{"N", n}}, 16, true, ad::driver::ValidateMode::kSymbolic));
    }
  }
  return corpus;
}

std::vector<RequestSpec> serviceCorpus() {
  using ad::driver::ValidateMode;
  static const ValidateMode cycle[3] = {ValidateMode::kNone, ValidateMode::kSymbolic,
                                        ValidateMode::kBoth};
  std::vector<RequestSpec> corpus;
  std::size_t i = 0;
  for (std::size_t f = 0; f < kGenFamilies; ++f) {
    for (std::size_t v = 0; v < kGenVariants; ++v, ++i) {
      corpus.push_back(sourceRequest(stencilLabel(f, v), stencilSource(f, v), {{"N", 64}}, 4,
                                     false, cycle[i % 3]));
    }
  }
  // The examples' ADL twins, at the suite's small bindings (adi at N=64).
  const auto& suite = ad::codes::benchmarkSuite();
  for (const std::string name : {"adi", "attention", "conv2d", "matmul", "stencil_tt"}) {
    std::map<std::string, std::int64_t> params = {{"N", 64}};
    for (const auto& info : suite) {
      if (info.name == name) params = info.smallParams;
    }
    const std::string path = std::string(kAdlDir) + "/" + name + ".adl";
    const auto text = readFile(path);
    if (!text) throw std::runtime_error("missing ADL input " + path);
    corpus.push_back(sourceRequest(name + ".adl", *text, params, 4, false, cycle[i++ % 3]));
  }
  // Pow2 butterflies fail Theorem-1/2 validation at H >= 2 (README.md), so
  // they run unvalidated until that defect is fixed.
  for (std::size_t v = 0; v < kPow2Variants; ++v) {
    corpus.push_back(sourceRequest("gen.pow2v" + std::to_string(v), pow2Source(v), {{"N", 64}},
                                   4, false, ValidateMode::kNone));
  }
  return corpus;
}

RequestSpec freshRequest(std::uint64_t seed, std::uint64_t index) {
  // An odd multiplier makes index -> x a bijection modulo 2^18, so the three
  // 6-bit widths never repeat within 262144 fresh programs of one seed.
  std::uint64_t state = seed ^ 0x5eedf00dULL;
  const std::uint64_t mult = splitmix64(state) | 1u;
  const std::uint64_t offset = splitmix64(state);
  const std::uint64_t x = (index * mult + offset) & ((1u << 18) - 1);
  const std::int64_t a = 1 + static_cast<std::int64_t>(x & 63);
  const std::int64_t b = 1 + static_cast<std::int64_t>((x >> 6) & 63);
  const std::int64_t c = 1 + static_cast<std::int64_t>((x >> 12) & 63);
  const std::int64_t hi = std::max(b, c) + 1;
  std::string src =
      "param N\n"
      "array U(N)\n"
      "array V(N)\n"
      "phase F1 { doall i = 0, N - 1 { write U(i) } }\n"
      "phase F2 { doall i = " + std::to_string(a) + ", N - " + std::to_string(hi) +
      " { read U(i - " + std::to_string(a) + ") read U(i + " + std::to_string(b) +
      ") read U(i + " + std::to_string(c) + ") write V(i) } }\n";
  RequestSpec r = sourceRequest("fresh.a" + std::to_string(a) + "b" + std::to_string(b) + "c" +
                                    std::to_string(c),
                                std::move(src), {{"N", 1024}}, 4, false,
                                ad::driver::ValidateMode::kNone);
  r.fresh = true;
  return r;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string simulationText(const ad::dsm::SimulationResult& sim) {
  std::ostringstream os;
  char num[32];
  const auto g9 = [&num](double v) {
    std::snprintf(num, sizeof num, "%.9g", v);
    return std::string(num);
  };
  for (const auto& p : sim.phases) {
    os << p.phase << ' ' << p.localAccesses << ' ' << p.remoteAccesses << ' ' << g9(p.time)
       << ' ' << g9(p.seqTime) << '\n';
  }
  for (const auto& r : sim.redistributions) {
    os << r.array << ' ' << r.beforePhase << ' ' << r.wordsMoved << ' ' << r.messages << ' '
       << g9(r.time) << ' ' << (r.frontier ? 'F' : 'G') << '\n';
  }
  return os.str();
}

bool Digests::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    Digest d;
    if (std::getline(fields, key, '\t') && std::getline(fields, d.golden, '\t') &&
        std::getline(fields, d.sim)) {
      entries_[key] = d;
    }
  }
  return !entries_.empty();
}

const Digest* Digests::find(const std::string& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

Digest digestOf(const ad::driver::PipelineResult& result, const std::string& golden,
                bool simulate) {
  Digest d;
  d.golden = hex64(fnv1a(golden));
  d.sim = simulate ? hex64(fnv1a(simulationText(result.planned) + "--\n" +
                                 simulationText(result.naive)))
                   : "-";
  return d;
}

std::optional<std::string> readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string checkRequest(const RequestSpec& spec, const ad::driver::PipelineResult& result,
                         const std::string& golden, const Digests& digests,
                         const std::map<std::string, std::string>& goldenFiles) {
  if (result.degraded()) return spec.key + ": degraded";
  if (result.localityCheck && !result.localityCheck->ok()) {
    return spec.key + ": Theorem-1/2 validation failed";
  }
  if (!result.symbolicAgrees()) {
    return spec.key + ": oracles disagree: " + result.symbolicDifference;
  }
  if (spec.fresh) return {};  // compared with its reference run by the caller
  if (!spec.goldenPath.empty()) {
    const auto it = goldenFiles.find(spec.goldenPath);
    if (it == goldenFiles.end()) return spec.key + ": missing " + spec.goldenPath;
    if (it->second != golden) return spec.key + ": differs from " + spec.goldenPath;
  }
  const Digest* want = digests.find(spec.key);
  if (want == nullptr) return spec.key + ": no digest";
  const Digest got = digestOf(result, golden, spec.simulate);
  if (got.golden != want->golden) return spec.key + ": golden digest differs";
  if (got.sim != want->sim) return spec.key + ": simulation digest differs";
  return {};
}

void clearCaches() {
  ad::sym::ProofMemo::global().clear();
  ad::loc::clearPhaseArrayMemo();
}

double percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(samples.size())));
  return samples[std::min(samples.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace adbench
