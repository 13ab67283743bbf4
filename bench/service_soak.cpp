// Overload-soak fault campaign for the analysis service (docs/SERVICE.md).
//
// Five phases against one long-lived in-process Server plus its socket
// front end:
//
//   1. flood      — thousands of concurrent mixed requests (clean /
//                   budget-starved / malformed / cancelled) from a pool of
//                   submitter threads; every clean response must stay
//                   byte-identical to the single-shot reference golden, and
//                   the shared proof memo must serve >50% of prover claims
//                   across requests (the point of a long-lived server);
//   2. faults     — the same mix with probabilistic fault injection on the
//                   handler, the prover, and the ILP search: every response
//                   stays structured (ok / degraded / error), the server
//                   never crashes, and a clean request afterwards is again
//                   byte-identical;
//   3. overload   — a synchronized burst of 8x the admission capacity
//                   against a tiny server: the overflow is shed with a
//                   retry hint, the admitted work all completes, and the
//                   drain leaves nothing in flight;
//   4. oversized  — an N=4000 trace-validated request under a 50 ms
//                   deadline comes back within the deadline plus slack,
//                   answered or refused with a structured deadline error,
//                   and the next clean request is byte-identical;
//   5. socket     — concurrent clients over a real AF_UNIX socket, then a
//                   shutdown op and a clean drain.
//
// Emits BENCH_service.json (schema ad.bench.service.v1): request counts per
// outcome, p50/p99 latency, overload shed rate, cross-request memo hit rate.
// Wall-clock numbers are reported but never gated (machine-dependent);
// scripts/bench_compare.py gates the structural fields and the memo rate.
//
// AD_SOAK_REQUESTS overrides the flood size (default 2000; the CI service
// stage uses a smaller TSan soak).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <latch>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "codes/suite.hpp"
#include "driver/pipeline.hpp"
#include "driver/serialize.hpp"
#include "frontend/parser.hpp"
#include "obs/obs.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "support/fault.hpp"

namespace {

using ad::service::Op;
using ad::service::Request;
using ad::service::Response;
using ad::service::ResponseKind;

/// The request corpus: small ADL programs with distinct locality shapes, so
/// the flood exercises different prover claims while still re-hitting the
/// shared memo across requests.
struct Workload {
  std::string name;
  std::string source;
  std::map<std::string, std::int64_t> params;
};

constexpr int kStencilVariants = 8;

/// The corpus: two fixed programs plus a family of width-`k` halo stencils.
/// The stencil variants are structurally distinct programs (different
/// interned access descriptors), so each forces real prover work — while
/// sharing subclaims with its siblings through the process-global proof
/// memo. That cross-request sharing is exactly what a long-lived server buys
/// over per-request processes, and what the memo-hit-rate gate below
/// measures. (Repeats of an *identical* source are absorbed entirely by the
/// hash-consed arena: zero prover work, zero memo probes.)
std::vector<Workload> buildCorpus() {
  std::vector<Workload> corpus;
  corpus.push_back({"stream",
                    "param N\n"
                    "array A(N)\n"
                    "array B(N)\n"
                    "phase F1 { doall i = 0, N - 1 { write A(i) } }\n"
                    "phase F2 { doall i = 0, N - 1 { read A(i) write B(i) } }\n",
                    {{"N", 64}}});
  corpus.push_back(
      {"transpose",
       "param N\n"
       "array A(N * N)\n"
       "array B(N * N)\n"
       "phase F1 { doall i = 0, N - 1 { do j = 0, N - 1 { write A(N*i + j) } } }\n"
       "phase F2 { doall i = 0, N - 1 { do j = 0, N - 1 { read A(N*j + i) write B(N*i + j) } } }\n",
       {{"N", 16}}});
  for (int k = 1; k <= kStencilVariants; ++k) {
    const std::string ks = std::to_string(k);
    corpus.push_back({"stencil" + ks,
                      "param N\n"
                      "array U(N)\n"
                      "array V(N)\n"
                      "phase F1 { doall i = 0, N - 1 { write U(i) } }\n"
                      "phase F2 { doall i = " + ks + ", N - " + std::to_string(k + 1) +
                          " { read U(i - " + ks + ") read U(i + " + ks + ") write V(i) } }\n",
                      {{"N", 128}}});
  }
  return corpus;
}

/// A gather stencil whose N = 4000 binding makes 16M-element arrays and
/// ~48M accesses per trace replay (the oversized case of service_test).
constexpr const char* kGatherStencilSource =
    "param N\n"
    "array A0(N*N)\n"
    "array A1(N*N)\n"
    "array A2(N*N)\n"
    "array A3(N*N)\n"
    "phase S0 { doall i = 1, N - 2 { do j = 1, N - 2 {\n"
    "  read A0(N*i + 2*j + 1) read A0(N*i + 2*j) read A0(N*i + 2*j + 1) write A1(N*i + j) } }\n"
    "  work 2.0 }\n"
    "phase S1 { doall i = 1, N - 2 { do j = 1, N - 2 {\n"
    "  read A1(N*i + 2*j) read A1(N*i + 2*j + 1) write A2(N*i + j) } } }\n"
    "phase S2 { doall i = 1, N - 2 { do j = 1, N - 2 {\n"
    "  read A2(N*i + 2*j + 1) read A2(N*i + 2*j) read A2(N*i + 2*j + 1) write A3(N*i + j) } }\n"
    "  work 2.0 }\n";

Request makeRequest(std::string id, const Workload& w) {
  Request r;
  r.op = Op::kAnalyze;
  r.id = std::move(id);
  r.source = w.source;
  for (const auto& [k, v] : w.params) r.params[k] = v;
  r.processors = 4;
  return r;
}

std::string referenceGolden(const Workload& w) {
  const ad::ir::Program prog = ad::frontend::parseProgram(w.source);
  ad::driver::PipelineConfig config;
  config.params = ad::codes::bindParams(prog, w.params);
  config.processors = 4;
  config.simulatePlan = false;
  config.simulateBaseline = false;
  return ad::driver::serializeGolden(ad::driver::analyzeAndSimulate(prog, config), prog);
}

/// Outcome tallies shared by the flood and fault phases.
struct Tally {
  std::atomic<std::int64_t> ok{0}, degraded{0}, errors{0}, cancelled{0}, shed{0},
      goldenMismatches{0}, malformedReplies{0};
};

double percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t idx = static_cast<std::size_t>(p * static_cast<double>(samples.size() - 1));
  return samples[idx];
}

}  // namespace

int main() {
  using Clock = std::chrono::steady_clock;
  ad::bench::Reporter r("Service overload soak (docs/SERVICE.md)");

  std::int64_t floodRequests = 2000;
  if (const char* env = std::getenv("AD_SOAK_REQUESTS")) {
    floodRequests = std::max<std::int64_t>(1, std::atoll(env));
  }
  const std::size_t submitters = 16;

  // Reference goldens, computed single-shot before the server exists: the
  // flood's correctness bar is byte-identity against these.
  std::map<std::string, std::string> reference;
  const std::vector<Workload> corpus = buildCorpus();
  for (const Workload& w : corpus) reference[w.name] = referenceGolden(w);

  ad::service::ServerOptions serverOptions;
  serverOptions.workers = 8;
  serverOptions.queueCapacity = 256;
  ad::service::Server server(serverOptions);

  // ------------------------------------------------------------------
  // Phase 1: the mixed flood.
  // ------------------------------------------------------------------
  Tally flood;
  std::vector<double> latenciesMs;
  std::mutex latenciesMu;
  std::atomic<std::int64_t> nextIndex{0};
  const auto floodWorker = [&] {
    std::vector<double> local;
    for (std::int64_t i = nextIndex.fetch_add(1); i < floodRequests;
         i = nextIndex.fetch_add(1)) {
      const Workload& w = corpus[static_cast<std::size_t>(i) % corpus.size()];
      Request request = makeRequest("soak-" + std::to_string(i), w);
      // Deterministic class mix: 5% budget-starved, 5% malformed source,
      // 5% unknown parameter, 5% cancelled mid-queue, 80% clean.
      const int cls = static_cast<int>(i % 20);
      if (cls == 0) request.budgetSteps = 1;
      if (cls == 1) request.source = "phase oops {";
      if (cls == 2) {
        request.params.clear();
        request.params["WRONG"] = 1;
      }
      const auto t0 = Clock::now();
      Response response;
      if (cls == 3) {
        auto handle = server.submit(std::move(request));
        handle->cancel();
        response = handle->wait();
      } else {
        response = server.call(std::move(request));
      }
      local.push_back(std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
      switch (response.kind) {
        case ResponseKind::kOk:
          flood.ok.fetch_add(1);
          if (cls != 3 && response.golden != reference[w.name]) flood.goldenMismatches.fetch_add(1);
          break;
        case ResponseKind::kDegraded:
          flood.degraded.fetch_add(1);
          if (response.degradation.empty()) flood.malformedReplies.fetch_add(1);
          break;
        case ResponseKind::kError:
          flood.errors.fetch_add(1);
          if (response.errorCode.empty() || response.error.empty()) {
            flood.malformedReplies.fetch_add(1);
          }
          break;
        case ResponseKind::kCancelled:
          flood.cancelled.fetch_add(1);
          break;
        case ResponseKind::kShed:
          flood.shed.fetch_add(1);
          break;
        default:
          flood.malformedReplies.fetch_add(1);
      }
    }
    const std::lock_guard<std::mutex> lock(latenciesMu);
    latenciesMs.insert(latenciesMs.end(), local.begin(), local.end());
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < submitters; ++t) threads.emplace_back(floodWorker);
  for (auto& th : threads) th.join();
  threads.clear();

  // Lifetime rate of the process-global proof memo: the reference warm-up
  // pays the cold misses, every structurally-repeated claim afterwards hits.
  // (The flood itself adds no probes for already-seen programs — the
  // hash-consed arena absorbs them before the prover runs, which is the
  // strongest form of cross-request reuse.)
  const std::int64_t memoHits = ad::obs::metrics().counter("ad.intern.proof_hits").value();
  const std::int64_t memoMisses =
      ad::obs::metrics().counter("ad.intern.proof_misses").value();
  const double memoHitRate =
      memoHits + memoMisses > 0
          ? static_cast<double>(memoHits) / static_cast<double>(memoHits + memoMisses)
          : 0.0;
  const double p50 = percentile(latenciesMs, 0.50);
  const double p99 = percentile(latenciesMs, 0.99);

  const std::int64_t answered = flood.ok + flood.degraded + flood.errors + flood.cancelled + flood.shed;
  r.check("flood: every request answered", floodRequests, answered);
  r.checkTrue("flood: no clean-golden drift (" + std::to_string(flood.goldenMismatches.load()) +
                  " mismatches)",
              flood.goldenMismatches == 0);
  r.checkTrue("flood: no malformed replies", flood.malformedReplies == 0);
  // 5% of the mix is starved (degraded), 10% malformed (errors); the
  // cancelled 5% lands on cancelled-or-ok depending on how fast the worker
  // got there. Nothing should be shed at this queue depth.
  r.checkTrue("flood: starved requests degraded (" + std::to_string(flood.degraded.load()) + ")",
              flood.degraded >= floodRequests / 20 - 1);
  r.checkTrue("flood: malformed requests errored (" + std::to_string(flood.errors.load()) + ")",
              flood.errors >= floodRequests / 10 - 1);
  r.checkTrue("flood: nothing shed at depth 256", flood.shed == 0);
  r.checkTrue("flood: cross-request memo hit rate " + std::to_string(memoHitRate) + " > 0.5",
              memoHitRate > 0.5);
  r.note("flood: p50 " + std::to_string(p50) + " ms, p99 " + std::to_string(p99) +
         " ms across " + std::to_string(floodRequests) + " requests, " +
         std::to_string(submitters) + " submitters");

  // ------------------------------------------------------------------
  // Phase 2: the fault campaign.
  // ------------------------------------------------------------------
  const std::int64_t faultRequests = std::max<std::int64_t>(floodRequests / 10, 50);
  Tally campaign;
  if (!ad::support::FaultInjector::global()
           .configure("service.handle%10:42,prover.timeout%20:43,ilp.solve%10:44")
           .isOk()) {
    r.checkTrue("fault campaign: injector configured", false);
  }
  nextIndex.store(0);
  const auto faultWorker = [&] {
    for (std::int64_t i = nextIndex.fetch_add(1); i < faultRequests;
         i = nextIndex.fetch_add(1)) {
      const Workload& w = corpus[static_cast<std::size_t>(i) % corpus.size()];
      const Response response = server.call(makeRequest("fault-" + std::to_string(i), w));
      switch (response.kind) {
        case ResponseKind::kOk: campaign.ok.fetch_add(1); break;
        case ResponseKind::kDegraded: campaign.degraded.fetch_add(1); break;
        case ResponseKind::kError:
          campaign.errors.fetch_add(1);
          if (response.errorCode.empty()) campaign.malformedReplies.fetch_add(1);
          break;
        default: campaign.malformedReplies.fetch_add(1);
      }
    }
  };
  for (std::size_t t = 0; t < submitters; ++t) threads.emplace_back(faultWorker);
  for (auto& th : threads) th.join();
  threads.clear();
  ad::support::FaultInjector::global().clear();

  r.check("fault campaign: every request answered", faultRequests,
          campaign.ok + campaign.degraded + campaign.errors);
  r.checkTrue("fault campaign: faults surfaced (errors " + std::to_string(campaign.errors.load()) +
                  ", degraded " + std::to_string(campaign.degraded.load()) + ")",
              campaign.errors > 0 && campaign.degraded > 0);
  r.checkTrue("fault campaign: every reply structured", campaign.malformedReplies == 0);
  const Response postFault = server.call(makeRequest("post-fault", corpus[0]));
  r.checkTrue("fault campaign: clean request byte-identical afterwards",
              postFault.kind == ResponseKind::kOk &&
                  postFault.golden == reference[corpus[0].name]);

  // ------------------------------------------------------------------
  // Phase 3: the overload burst against a tiny server, then its drain.
  // ------------------------------------------------------------------
  ad::service::ServerOptions tinyOptions;
  tinyOptions.workers = 2;
  tinyOptions.queueCapacity = 8;
  tinyOptions.retryAfterMs = 5;
  ad::service::Server tiny(tinyOptions);
  const std::size_t burst = 8 * (tinyOptions.queueCapacity + tinyOptions.workers);
  Tally burstTally;
  std::latch startLine(static_cast<std::ptrdiff_t>(burst));
  for (std::size_t i = 0; i < burst; ++i) {
    threads.emplace_back([&, i] {
      Request request = makeRequest("burst-" + std::to_string(i),
                                    corpus[i % corpus.size()]);
      startLine.arrive_and_wait();  // everyone hits admission together
      const Response response = tiny.call(std::move(request));
      switch (response.kind) {
        case ResponseKind::kOk: burstTally.ok.fetch_add(1); break;
        case ResponseKind::kDegraded: burstTally.degraded.fetch_add(1); break;
        case ResponseKind::kError: burstTally.errors.fetch_add(1); break;
        case ResponseKind::kCancelled: burstTally.cancelled.fetch_add(1); break;
        case ResponseKind::kShed:
          burstTally.shed.fetch_add(1);
          if (response.retryAfterMs <= 0) burstTally.malformedReplies.fetch_add(1);
          break;
        default: burstTally.malformedReplies.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  threads.clear();
  tiny.shutdown();
  const ad::service::ServerStats tinyStats = tiny.stats();
  const double shedRate = static_cast<double>(burstTally.shed.load()) / static_cast<double>(burst);

  r.checkTrue("overload: burst sheds under pressure (" + std::to_string(burstTally.shed.load()) +
                  "/" + std::to_string(burst) + ")",
              burstTally.shed > 0);
  r.checkTrue("overload: every shed carried a retry hint", burstTally.malformedReplies == 0);
  r.checkTrue("overload: admitted work all completed",
              tinyStats.accepted == tinyStats.ok + tinyStats.degraded + tinyStats.errors +
                                        tinyStats.cancelled);
  r.check("overload: drained to zero in flight", std::int64_t{0}, tinyStats.inFlight);

  // ------------------------------------------------------------------
  // Phase 4: an oversized trace validation under a deadline.
  // ------------------------------------------------------------------
  // The slack covers sanitizer builds and a loaded machine; without the
  // back half's deadline polls the replay alone takes seconds.
  constexpr std::int64_t kOversizedDeadlineMs = 50;
  constexpr std::int64_t kOversizedSlackMs = 450;
  Request oversized;
  oversized.op = Op::kAnalyze;
  oversized.id = "oversized";
  oversized.source = kGatherStencilSource;
  oversized.params["N"] = 4000;
  oversized.processors = 16;
  oversized.simulate = false;
  oversized.validate = "trace";
  oversized.deadlineMs = kOversizedDeadlineMs;
  const auto oversizedStart = Clock::now();
  const Response oversizedReply = server.call(std::move(oversized));
  const auto oversizedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                               Clock::now() - oversizedStart)
                               .count();
  const bool oversizedAnswered =
      oversizedReply.kind == ResponseKind::kOk || oversizedReply.kind == ResponseKind::kDegraded ||
      (oversizedReply.kind == ResponseKind::kError && oversizedReply.errorCode == "deadline");
  r.checkTrue("oversized: answered or refused with a deadline error (" +
                  std::string(ad::service::responseKindName(oversizedReply.kind)) + ")",
              oversizedAnswered);
  r.checkTrue("oversized: back in " + std::to_string(oversizedMs) + " ms < " +
                  std::to_string(kOversizedDeadlineMs + kOversizedSlackMs) + " ms",
              oversizedMs < kOversizedDeadlineMs + kOversizedSlackMs);
  const Response postOversized = server.call(makeRequest("post-oversized", corpus[0]));
  r.checkTrue("oversized: clean request byte-identical afterwards",
              postOversized.kind == ResponseKind::kOk &&
                  postOversized.golden == reference[corpus[0].name]);

  // ------------------------------------------------------------------
  // Phase 5: concurrent clients over the socket, then shutdown.
  // ------------------------------------------------------------------
  ad::service::SocketOptions socketOptions;
  socketOptions.path = "/tmp/ad_service_soak_" + std::to_string(::getpid()) + ".sock";
  ad::service::SocketServer wire(server, socketOptions);
  std::atomic<std::int64_t> socketOk{0}, socketBad{0};
  if (!wire.start().isOk()) {
    r.checkTrue("socket: server started", false);
  } else {
    const std::size_t clients = 8, perClient = 5;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        ad::service::Client client(socketOptions.path);
        for (std::size_t k = 0; k < perClient; ++k) {
          const Workload& w = corpus[(c + k) % corpus.size()];
          const auto response =
              client.call(makeRequest("sock-" + std::to_string(c) + "-" + std::to_string(k), w));
          const bool good = response.has_value() && response->kind == ResponseKind::kOk &&
                            response->golden == reference[w.name];
          (good ? socketOk : socketBad).fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();
    threads.clear();
    r.check("socket: every client round trip byte-identical",
            static_cast<std::int64_t>(clients * perClient), socketOk.load());
    r.checkTrue("socket: no failed round trips", socketBad == 0);

    ad::service::Client controller(socketOptions.path);
    Request shutdownOp;
    shutdownOp.op = Op::kShutdown;
    const auto ack = controller.call(shutdownOp);
    r.checkTrue("socket: shutdown acknowledged",
                ack.has_value() && ack->kind == ResponseKind::kInfo);
    wire.waitForShutdownRequest();
  }
  server.shutdown();
  wire.stop();
  const ad::service::ServerStats finalStats = server.stats();
  r.check("drain: zero in flight", std::int64_t{0}, finalStats.inFlight);
  r.checkTrue("drain: accounting consistent",
              finalStats.accepted == finalStats.ok + finalStats.degraded + finalStats.errors +
                                         finalStats.cancelled);

  // ------------------------------------------------------------------
  // The artifact.
  // ------------------------------------------------------------------
  std::ostringstream json;
  json << "{\n"
       << "  \"schema\": \"ad.bench.service.v1\",\n"
       << "  \"flood\": {\n"
       << "    \"requests\": " << floodRequests << ",\n"
       << "    \"submitters\": " << submitters << ",\n"
       << "    \"ok\": " << flood.ok.load() << ",\n"
       << "    \"degraded\": " << flood.degraded.load() << ",\n"
       << "    \"errors\": " << flood.errors.load() << ",\n"
       << "    \"cancelled\": " << flood.cancelled.load() << ",\n"
       << "    \"shed\": " << flood.shed.load() << ",\n"
       << "    \"golden_mismatches\": " << flood.goldenMismatches.load() << ",\n"
       << "    \"latency_p50_ms\": " << p50 << ",\n"
       << "    \"latency_p99_ms\": " << p99 << ",\n"
       << "    \"memo_hit_rate\": " << memoHitRate << "\n"
       << "  },\n"
       << "  \"faults\": {\n"
       << "    \"requests\": " << faultRequests << ",\n"
       << "    \"ok\": " << campaign.ok.load() << ",\n"
       << "    \"degraded\": " << campaign.degraded.load() << ",\n"
       << "    \"errors\": " << campaign.errors.load() << ",\n"
       << "    \"structured\": " << (campaign.malformedReplies == 0 ? "true" : "false") << "\n"
       << "  },\n"
       << "  \"overload\": {\n"
       << "    \"burst\": " << burst << ",\n"
       << "    \"queue_capacity\": " << tinyOptions.queueCapacity << ",\n"
       << "    \"shed\": " << burstTally.shed.load() << ",\n"
       << "    \"shed_rate\": " << shedRate << ",\n"
       << "    \"drained_clean\": "
       << (tinyStats.inFlight == 0 ? "true" : "false") << "\n"
       << "  },\n"
       << "  \"socket\": {\n"
       << "    \"round_trips\": " << socketOk.load() << ",\n"
       << "    \"failures\": " << socketBad.load() << "\n"
       << "  },\n"
       << "  \"golden_stable\": "
       << (flood.goldenMismatches == 0 && socketBad == 0 ? "true" : "false") << ",\n"
       << "  \"drained_clean\": " << (finalStats.inFlight == 0 ? "true" : "false") << "\n"
       << "}\n";
  if (!ad::bench::writeTextFile("BENCH_service.json", json.str())) return EXIT_FAILURE;
  r.note("wrote BENCH_service.json");
  return r.finish();
}
