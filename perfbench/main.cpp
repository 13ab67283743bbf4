// adbench: the request-level benchmark driver (see README.md).
//
//   adbench --workload compile_cold|n_sweep|service_mix --seed N --seconds S
//           --trace 0|1 [--commit ID]
//   adbench --write-digests FILE
//
// Runs from the checkout root (inputs and the socket use relative paths).
// Prints an environment stamp and one line per metric (name, value, unit,
// samples), then, as the last line, the JSON result object. Exit code 0 when
// every output was correct, 1 when a check failed, 2 on bad usage.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

#include "bench.hpp"
#include "driver/serialize.hpp"

namespace {

using namespace adbench;

std::size_t availableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return static_cast<std::size_t>(CPU_COUNT(&set));
  return 1;
}

std::string jsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const std::string& why) {
  std::cerr << "adbench: " << why
            << "\nusage: adbench --workload compile_cold|n_sweep|service_mix --seed N "
               "--seconds S --trace 0|1 [--commit ID]\n"
               "       adbench --write-digests FILE\n";
  return 2;
}

}  // namespace

namespace adbench {

int writeDigests(const std::string& path) {
  std::vector<RequestSpec> all = compileColdCorpus();
  for (auto& spec : nSweepCorpus()) all.push_back(std::move(spec));
  for (auto& spec : serviceCorpus()) all.push_back(std::move(spec));
  std::map<std::string, std::string> goldenFiles;
  std::set<std::string> written;
  std::ostringstream text;
  text << "# key\tgolden fnv1a\tDSM simulation fnv1a (planned, naive) or -\n";
  int failures = 0;
  for (const RequestSpec& spec : all) {
    if (!written.insert(spec.key).second) continue;
    if (!spec.goldenPath.empty()) {
      if (auto file = readFile(spec.goldenPath)) goldenFiles[spec.goldenPath] = *file;
    }
    const Prepared p = prepare(spec);
    const auto result = ad::driver::analyzeAndSimulate(*p.program, p.config);
    const std::string golden = ad::driver::serializeGolden(result, *p.program);
    const Digest d = digestOf(result, golden, spec.simulate);
    RequestSpec unpinned = spec;
    unpinned.fresh = true;  // verdicts only: there is no digest yet
    std::string problem = checkRequest(unpinned, result, golden, Digests{}, goldenFiles);
    if (problem.empty() && !spec.goldenPath.empty() && goldenFiles[spec.goldenPath] != golden) {
      problem = spec.key + ": differs from " + spec.goldenPath;
    }
    if (!problem.empty()) {
      std::cerr << "adbench: " << problem << "\n";
      ++failures;
    }
    text << spec.key << '\t' << d.golden << '\t' << d.sim << '\n';
  }
  if (failures != 0) return 1;
  std::ofstream out(path);
  out << text.str();
  if (!out) return usage("cannot write " + path);
  std::cout << "wrote " << written.size() << " digests to " << path << "\n";
  return 0;
}

}  // namespace adbench

int main(int argc, char** argv) {
  RunOptions o;
  o.processStart = Clock::now();
  o.nproc = availableCpus();
  int trace = -1;
  std::string commit = "unknown";
  std::string writePath;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") o.workload = value;
    else if (arg == "--seed") o.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--seconds") o.seconds = std::atof(value.c_str());
    else if (arg == "--trace") trace = std::atoi(value.c_str());
    else if (arg == "--commit") commit = value;
    else if (arg == "--write-digests") writePath = value;
    else return usage("unknown argument " + arg);
  }
  if (!writePath.empty()) return writeDigests(writePath);
  if (o.workload != "compile_cold" && o.workload != "n_sweep" && o.workload != "service_mix") {
    return usage("unknown workload '" + o.workload + "'");
  }
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");
  if (!(o.seconds > 0.0)) return usage("--seconds must be positive");
  Digests digests;
  if (!digests.load(kDigestPath)) return usage(std::string("cannot read ") + kDigestPath);

  std::cout << "# perfbench workload=" << o.workload << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << trace << "\n"
            << "# env nproc=" << o.nproc << " build=" << ADBENCH_BUILD_TYPE
            << " compiler=\"" << __VERSION__ << "\" commit=" << commit << "\n";

  Outcome out;
  try {
    out = trace == 1 ? runTraced(o, digests) : runTimed(o, digests);
  } catch (const std::exception& e) {
    std::cerr << "adbench: " << e.what() << "\n";
    return 1;
  }
  if (out.attempted < 1) out.fail("no operation attempted");

  for (const Metric& m : out.metrics) {
    std::cout << "# metric " << m.name << " = " << jsonNumber(m.value) << " " << m.unit;
    if (m.samples != 0) std::cout << " (n=" << m.samples << ")";
    std::cout << "\n";
  }
  for (const std::string& n : out.notes) std::cout << "# " << n << "\n";
  for (const std::string& p : out.problems) std::cout << "# FAIL " << p << "\n";
  const bool correct = out.problems.empty() && out.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << jsonNumber(m.value)
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
