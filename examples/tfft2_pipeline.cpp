// The paper's running example, end to end: the eight-phase TFFT2 section.
//
//   run: ./build/examples/tfft2_pipeline [P] [Q] [H] [--simulate]
//            [--validate=trace|symbolic|both] [--suite] [--jobs N]
//            [--fault SPEC] [--budget-steps N] [--budget-ms N]
//            [--trace-out=FILE] [--metrics-out=FILE] [--profile-out=FILE]
//
// Prints the LCG of Figure 6, the Table-2 integer program, the chosen
// BLOCK-CYCLIC distributions, the put schedules for the two C edges, the
// simulated execution against the naive baseline, and a Graphviz rendering
// of the LCG (pipe the last section into `dot -Tpng`).
//
// With --simulate, additionally replays every access of the plan on H
// simulated processors (a serial, strength-reduced walk of each phase) and
// cross-checks the observed local/remote traffic against the Theorem-1/2
// edge labels. --validate picks the oracle explicitly: trace (the
// enumerating replay), symbolic (closed-form interval counts,
// O(descriptors)), or both (differential mode: the two traces must agree
// exactly — see docs/VALIDATION.md). A differential mismatch exits 1.
//
// With --suite, runs the whole benchmark suite (six 1999 codes + the AI/HPC
// kernel family) as one batch through the
// non-throwing engine: each item reports ok / degraded / FAILED with its
// structured status, and one poisoned code never takes down the others.
//
// --fault and the AD_FAULT_SPEC environment variable drive the deterministic
// fault-injection harness; --budget-steps/--budget-ms bound the analysis,
// degrading it (conservatively, and visibly in the report) instead of
// failing it. Exit codes, in precedence order:
//   2 usage error    3 artifact write failed    1 locality validation failed
//   4 analysis failed    5 degraded but sound    0 clean
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "codes/suite.hpp"
#include "codes/tfft2.hpp"
#include "driver/cli.hpp"
#include "driver/pipeline.hpp"
#include "driver/serialize.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "support/fault.hpp"
#include "support/status.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace ad;

constexpr int kExitValidationFailed = 1;
constexpr int kExitUsage = 2;
constexpr int kExitWriteFailed = 3;
constexpr int kExitAnalysisFailed = 4;
constexpr int kExitDegraded = 5;
constexpr int kExitServiceUnavailable = 6;

bool writeFileOrComplain(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  if (!out) {
    std::cerr << "error: could not write " << path << "\n";
    return false;
  }
  return true;
}

support::BudgetLimits budgetFrom(const driver::CliOptions& opts) {
  support::BudgetLimits limits;
  limits.proverSteps = opts.budgetSteps;
  limits.deadlineMs = opts.budgetMs;
  return limits;
}

driver::ValidateMode validateModeFrom(const driver::CliOptions& opts) {
  if (const auto mode = driver::parseValidateMode(opts.validate)) return *mode;
  return opts.simulate ? driver::ValidateMode::kTrace : driver::ValidateMode::kNone;
}

int runSingle(const driver::CliOptions& opts) {
  const ir::Program prog = codes::makeTFFT2();
  driver::PipelineConfig config;
  config.params = codes::bindParams(prog, {{"P", opts.P}, {"Q", opts.Q}});
  config.processors = opts.H;
  config.validate = validateModeFrom(opts);
  config.jobs = opts.jobs;
  config.budget = budgetFrom(opts);

  std::optional<support::ThreadPool> pool;
  if (opts.jobs > 1) pool.emplace(opts.jobs);
  const auto result =
      driver::analyzeAndSimulateChecked(prog, config, pool ? &*pool : nullptr);
  if (!result.has_value()) {
    std::cerr << "error: analysis failed: " << result.status().str() << "\n";
    return kExitAnalysisFailed;
  }
  std::cout << result->report(prog);

  std::cout << "\n=== put schedules (SHMEM-style) ===\n";
  for (const auto& s : result->schedules) std::cout << s.str();
  std::cout << "\n=== Graphviz (LCG) ===\n" << result->lcg.dot();

  if (!result->symbolicAgrees()) {
    std::cerr << "error: differential validation mismatch: " << result->symbolicDifference
              << "\n";
    return kExitValidationFailed;
  }
  if (result->localityCheck && !result->localityCheck->ok()) return kExitValidationFailed;
  if (result->degraded()) return kExitDegraded;
  return 0;
}

int runSuite(const driver::CliOptions& opts) {
  const auto& suite = codes::benchmarkSuite();
  const driver::ValidateMode mode = validateModeFrom(opts);
  const bool validating = mode != driver::ValidateMode::kNone;

  // Build phase. A code whose construction fails (e.g. an injected
  // frontend.parse fault) is reported and skipped; the rest still run.
  std::vector<ir::Program> programs;
  programs.reserve(suite.size());  // stable addresses for BatchItem
  std::vector<int> itemIndex(suite.size(), -1);
  std::vector<Status> buildErrors(suite.size());
  std::vector<driver::BatchItem> batch;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    clearPendingErrorContext();
    try {
      ErrorContext code("code", suite[i].name);
      programs.push_back(suite[i].build());
    } catch (...) {
      buildErrors[i] = statusFromCurrentException();
      continue;
    }
    driver::BatchItem item;
    item.program = &programs.back();
    item.label = suite[i].name;
    item.config.params = codes::bindParams(
        programs.back(), validating ? suite[i].simParams : suite[i].smallParams);
    item.config.processors = 4;
    item.config.simulatePlan = false;
    item.config.simulateBaseline = false;
    item.config.validate = mode;
    item.config.jobs = opts.jobs;
    item.config.budget = budgetFrom(opts);
    itemIndex[i] = static_cast<int>(batch.size());
    batch.push_back(std::move(item));
  }

  const auto results = driver::analyzeBatch(batch, opts.jobs);

  bool anyFailed = false;
  bool anyDegraded = false;
  bool anyDisagreement = false;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const std::string& name = suite[i].name;
    if (itemIndex[i] < 0) {
      std::cout << name << ": FAILED — " << buildErrors[i].str() << "\n";
      anyFailed = true;
      continue;
    }
    const auto& r = results[static_cast<std::size_t>(itemIndex[i])];
    if (!r.has_value()) {
      std::cout << name << ": FAILED — " << r.status().str() << "\n";
      anyFailed = true;
      continue;
    }
    // Serialize every successful item: the golden form is the batch artifact,
    // and it exercises the serializer under fault injection too.
    std::string golden;
    try {
      golden = driver::serializeGolden(*r, *batch[static_cast<std::size_t>(itemIndex[i])].program);
    } catch (...) {
      std::cout << name << ": FAILED — " << statusFromCurrentException().str()
                << " (golden serialization)\n";
      anyFailed = true;
      continue;
    }
    std::string verdict = "ok";
    if ((r->localityCheck && !r->localityCheck->ok()) || !r->symbolicAgrees()) {
      verdict = "VALIDATION FAILED";
      anyDisagreement = true;
      if (!r->symbolicAgrees()) {
        std::cout << "    differential: " << r->symbolicDifference << "\n";
      }
    } else if (r->degraded()) {
      verdict = "degraded";
      anyDegraded = true;
    }
    std::cout << name << ": " << verdict << " — C edges=" << r->lcg.communicationEdges()
              << " redistributions=" << r->schedules.size() << " golden=" << golden.size()
              << "B";
    if (r->localityCheck) {
      std::cout << " validated=" << (r->localityCheck->checked - r->localityCheck->disagreements)
                << "/" << r->localityCheck->checked;
    }
    std::cout << "\n";
    for (const auto& d : r->degradation) std::cout << "    degrade: " << d.str() << "\n";
  }

  if (anyDisagreement) return kExitValidationFailed;
  if (anyFailed) return kExitAnalysisFailed;
  if (anyDegraded) return kExitDegraded;
  return 0;
}

/// --serve=PATH: run the analysis service on a Unix socket until a client
/// sends the shutdown op, then drain gracefully. The server's per-request
/// budget caps come from --budget-steps/--budget-ms, its admission queue
/// from --queue, its worker count from --jobs.
int runServe(const driver::CliOptions& opts) {
  service::ServerOptions serverOptions;
  serverOptions.workers = opts.jobs;
  serverOptions.queueCapacity = static_cast<std::size_t>(opts.queueMax);
  serverOptions.maxBudgetSteps = opts.budgetSteps;
  serverOptions.maxDeadlineMs = opts.budgetMs;
  serverOptions.drainMs = opts.drainMs;
  service::Server core(serverOptions);

  service::SocketOptions socketOptions;
  socketOptions.path = opts.serve;
  service::SocketServer wire(core, socketOptions);
  if (const Status st = wire.start(); !st.isOk()) {
    std::cerr << "error: cannot serve: " << st.str() << "\n";
    return kExitServiceUnavailable;
  }
  std::cout << "serving on " << wire.path() << " (workers=" << opts.jobs
            << " queue=" << opts.queueMax << ")\n";
  wire.waitForShutdownRequest();
  // Drain first so in-flight requests are answered over their still-open
  // connections, then tear the socket layer down.
  core.shutdown();
  wire.stop();
  const service::ServerStats stats = core.stats();
  std::cout << "drained: accepted=" << stats.accepted << " ok=" << stats.ok
            << " degraded=" << stats.degraded << " errors=" << stats.errors
            << " cancelled=" << stats.cancelled
            << " shed=" << stats.shedOverload + stats.shedDraining << "\n";
  return 0;
}

/// --client=PATH: submit one request (or the shutdown op) and map the
/// response kind onto the documented exit-code table.
int runClient(const driver::CliOptions& opts) {
  service::ClientOptions clientOptions;
  clientOptions.maxRetries = static_cast<int>(opts.retries);
  service::Client client(opts.client, clientOptions);

  if (opts.shutdownOp) {
    service::Request request;
    request.op = service::Op::kShutdown;
    request.id = "cli-shutdown";
    const auto response = client.call(request);
    if (!response.has_value()) {
      std::cerr << "error: " << response.status().str() << "\n";
      return kExitServiceUnavailable;
    }
    std::cout << "server draining\n";
    return 0;
  }

  std::ifstream in(opts.source);
  if (!in) {
    std::cerr << "error: cannot read " << opts.source << "\n";
    return kExitUsage;
  }
  std::ostringstream text;
  text << in.rdbuf();

  service::Request request;
  request.op = service::Op::kAnalyze;
  request.source = text.str();
  request.processors = opts.processors;
  request.validate = opts.validate.empty() ? (opts.simulate ? "trace" : "none") : opts.validate;
  request.simulate = opts.simulate;
  request.budgetSteps = opts.budgetSteps;
  request.deadlineMs = opts.budgetMs;
  for (const auto& [name, value] : opts.params) request.params[name] = value;

  int worst = 0;
  const auto rank = [](int rc) {  // precedence: transport > analysis > validation > degraded
    switch (rc) {
      case kExitServiceUnavailable: return 4;
      case kExitAnalysisFailed: return 3;
      case kExitValidationFailed: return 2;
      case kExitDegraded: return 1;
      default: return 0;
    }
  };
  for (std::int64_t attempt = 0; attempt < opts.repeat; ++attempt) {
    request.id = "cli-" + std::to_string(attempt);
    const auto response = client.call(request);
    int rc = 0;
    if (!response.has_value()) {
      std::cerr << "error: " << response.status().str() << "\n";
      rc = kExitServiceUnavailable;
    } else {
      switch (response->kind) {
        case service::ResponseKind::kOk:
          std::cout << response->golden;
          break;
        case service::ResponseKind::kDegraded:
          std::cout << response->golden;
          for (const auto& d : response->degradation) std::cerr << "degrade: " << d << "\n";
          rc = kExitDegraded;
          break;
        case service::ResponseKind::kShed:
          std::cerr << (response->retryAfterMs > 0
                            ? "error: request shed after retries (server overloaded)"
                            : "error: server is draining")
                    << "\n";
          rc = kExitServiceUnavailable;
          break;
        case service::ResponseKind::kCancelled:
          std::cerr << "error: request cancelled\n";
          rc = kExitAnalysisFailed;
          break;
        case service::ResponseKind::kError:
          std::cerr << "error: " << response->error << "\n";
          rc = response->errorCode == "validation" ? kExitValidationFailed
                                                   : kExitAnalysisFailed;
          break;
        case service::ResponseKind::kInfo:
          std::cout << response->info << "\n";
          break;
      }
    }
    if (rank(rc) > rank(worst)) worst = rc;
  }
  return worst;
}

/// Writes every requested observability artifact (trace, metrics, profile).
/// Called on EVERY exit path that knows the file names — including usage
/// errors, degraded runs, and escaped exceptions: a failed run is exactly the
/// one whose trace and contention profile you want on disk. Each artifact is
/// attempted even when an earlier one failed to write. Returns the final
/// process exit code (write failure takes precedence over `rc`, matching the
/// documented code ordering).
int flushArtifactsAndExit(const driver::CliOptions& opts, int rc) {
  bool writeFailed = false;
  if (!opts.traceOut.empty() && !writeFileOrComplain(opts.traceOut, obs::tracer().toJson())) {
    writeFailed = true;
  }
  if (!opts.metricsOut.empty() &&
      !writeFileOrComplain(opts.metricsOut, obs::metrics().toJson())) {
    writeFailed = true;
  }
  if (!opts.profileOut.empty() &&
      !writeFileOrComplain(opts.profileOut, obs::profiler().summary())) {
    writeFailed = true;
  }
  return writeFailed ? kExitWriteFailed : rc;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = driver::parseCli(argc, argv);
  if (!parsed.has_value()) {
    // No artifact flush possible here: the failed parse is what would have
    // told us the artifact file names.
    std::cerr << "error: " << parsed.status().str() << "\n" << driver::cliUsage(argv[0]);
    return kExitUsage;
  }
  const driver::CliOptions opts = *parsed;

  if (!opts.traceOut.empty()) obs::tracer().enable();
  if (!opts.profileOut.empty()) obs::profiler().enable();

  if (const Status st = support::FaultInjector::global().configureFromEnv(); !st.isOk()) {
    std::cerr << "error: AD_FAULT_SPEC: " << st.str() << "\n" << driver::cliUsage(argv[0]);
    return flushArtifactsAndExit(opts, kExitUsage);
  }
  if (!opts.faultSpec.empty()) {
    if (const Status st = support::FaultInjector::global().configure(opts.faultSpec);
        !st.isOk()) {
      std::cerr << "error: " << st.str() << "\n" << driver::cliUsage(argv[0]);
      return flushArtifactsAndExit(opts, kExitUsage);
    }
  }

  int rc = 0;
  try {
    if (!opts.serve.empty()) rc = runServe(opts);
    else if (!opts.client.empty()) rc = runClient(opts);
    else rc = opts.suite ? runSuite(opts) : runSingle(opts);
  } catch (...) {
    // The runners catch at every pipeline boundary; anything escaping to here
    // is unexpected — but the artifacts must still reach disk.
    std::cerr << "error: unhandled failure: " << statusFromCurrentException().str() << "\n";
    rc = kExitAnalysisFailed;
  }
  return flushArtifactsAndExit(opts, rc);
}
