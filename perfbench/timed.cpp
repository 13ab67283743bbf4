// The timed run (tracing off): set-up, the closed-loop window, the output
// checks, and every end-to-end metric.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "driver/serialize.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "timed.hpp"

namespace adbench {

namespace {

/// Set-up runs this many times per process and setup_s reports the median,
/// so one slow start does not decide the figure.
constexpr int kSetupReps = 5;

/// n_sweep's request block, in nSweepCorpus() order (TFFT2 32, 64; family 4
/// at N = 64, 128, 256; family 5 likewise). The block is shuffled per seed
/// and the window runs whole blocks, so every run sees the same mix. Sorted
/// by latency, TFFT2 at 32 spans the 30th-70th percentiles and TFFT2 at 64
/// the 75th-95th, so p50 and p90 each fall inside one request class rather
/// than on the boundary between two.
constexpr int kSweepWeights[] = {16, 8, 6, 1, 1, 6, 1, 1};

/// service_mix: two fresh programs in every block of ten requests.
constexpr int kServiceBlock = 10;
constexpr int kServiceFresh = 2;

/// The arena keeps every fresh program's expressions, so service_mix's RSS
/// grows with the requests served. Reading the peak when the stream passes
/// this request (about 12 s into a run today) measures a fixed amount of work
/// rather than whatever a window of the given length happened to serve.
constexpr std::uint64_t kRssMarkRequest = 16000;

double geomean(const std::vector<double>& values) {
  double logSum = 0.0;
  for (const double v : values) logSum += std::log(v);
  return values.empty() ? 0.0 : std::exp(logSum / static_cast<double>(values.size()));
}

/// Geometric mean of the planned efficiency over `specs`, each simulated once
/// outside the timed window (the workloads that never run the DSM model).
double planEfficiency(const std::vector<RequestSpec>& specs, Outcome& out) {
  std::vector<double> eff;
  for (const RequestSpec& spec : specs) {
    Prepared p = prepare(spec);
    p.config.simulatePlan = true;
    p.config.simulateBaseline = false;
    p.config.validate = ad::driver::ValidateMode::kNone;
    const double e = ad::driver::analyzeAndSimulate(*p.program, p.config).plannedEfficiency();
    if (e > 0.0 && std::isfinite(e)) {
      eff.push_back(e);
    } else {
      out.fail(spec.key + ": planned efficiency " + std::to_string(e));
    }
  }
  return geomean(eff);
}

void addLatencyMetrics(Outcome& out, std::vector<double> latMs, double windowS,
                       std::int64_t completed) {
  const std::size_t n = latMs.size();
  out.add("throughput_rps", static_cast<double>(completed) / windowS, "1/s", n);
  out.add("latency_p50_ms", percentile(latMs, 0.5), "ms", n);
  out.add("latency_p90_ms", percentile(latMs, 0.9), "ms", n);
  const double failRate = out.attempted > 0 ? static_cast<double>(out.failed) /
                                                  static_cast<double>(out.attempted)
                                            : 1.0;
  out.add("success_rate", 1.0 - failRate, "ratio", static_cast<std::size_t>(out.attempted));
}

}  // namespace

// ---------------------------------------------------------------------------
// compile_cold
// ---------------------------------------------------------------------------

CompileState::CompileState(std::uint64_t seed) : specs(compileColdCorpus()) {
  shuffle(specs, seed);
  prepared.reserve(specs.size());
  for (const RequestSpec& spec : specs) {
    prepared.push_back(prepare(spec));
    ad::driver::BatchItem item;
    item.program = prepared.back().program.get();
    item.config = prepared.back().config;
    item.config.simulatePlan = false;
    item.config.simulateBaseline = false;
    item.label = spec.key;
    batch.push_back(std::move(item));
    if (!spec.goldenPath.empty() && goldenFiles.count(spec.goldenPath) == 0) {
      if (auto text = readFile(spec.goldenPath)) goldenFiles[spec.goldenPath] = std::move(*text);
    }
  }
}

double CompileState::runBatch(std::size_t jobs, const Digests& digests, Outcome* out) const {
  const auto start = Clock::now();
  clearCaches();
  auto results = ad::driver::analyzeBatch(batch, jobs);
  std::vector<std::string> goldens(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].has_value()) {
      goldens[i] = ad::driver::serializeGolden(*results[i], *prepared[i].program);
    }
  }
  const double ms = msSince(start);
  if (out != nullptr) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      ++out->attempted;
      std::string problem =
          results[i].has_value()
              ? checkRequest(specs[i], *results[i], goldens[i], digests, goldenFiles)
              : specs[i].key + ": " + results[i].status().str();
      if (!problem.empty()) {
        ++out->failed;
        out->fail(std::move(problem));
      }
    }
  }
  return ms;
}

namespace {

Outcome timedCompileCold(const RunOptions& o, const Digests& digests) {
  Outcome out;
  std::vector<double> setupS;
  std::unique_ptr<CompileState> state;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = rep == 0 ? o.processStart : Clock::now();
    state = std::make_unique<CompileState>(o.seed);
    Outcome warm;
    (void)state->runBatch(o.nproc, digests, &warm);  // warm-up pass, checked
    for (auto& p : warm.problems) out.fail("warm-up: " + p);
    setupS.push_back(msSince(start) / 1000.0);
  }

  std::vector<double> latMs;
  const auto windowStart = Clock::now();
  while (msSince(windowStart) < o.seconds * 1000.0) {
    latMs.push_back(state->runBatch(o.nproc, digests, &out));
  }
  const double windowS = msSince(windowStart) / 1000.0;
  const double rss = peakRssMb();

  addLatencyMetrics(out, latMs, windowS, out.attempted - out.failed);
  out.add("peak_rss_mb", rss, "MiB");
  out.add("plan_efficiency", planEfficiency(state->specs, out), "ratio", state->specs.size());
  out.add("setup_s", median(setupS), "s", setupS.size());
  return out;
}

// ---------------------------------------------------------------------------
// n_sweep
// ---------------------------------------------------------------------------

struct SweepState {
  std::vector<RequestSpec> specs = nSweepCorpus();
  std::vector<Prepared> prepared;
  std::vector<std::size_t> block;  ///< request indices, shuffled by the seed

  explicit SweepState(std::uint64_t seed) {
    for (const RequestSpec& spec : specs) prepared.push_back(prepare(spec));
    for (std::size_t i = 0; i < specs.size(); ++i) block.insert(block.end(), kSweepWeights[i], i);
    shuffle(block, seed);
  }
};

Outcome timedNSweep(const RunOptions& o, const Digests& digests) {
  Outcome out;
  const std::map<std::string, std::string> noGoldenFiles;
  std::vector<double> setupS;
  std::unique_ptr<SweepState> state;
  std::vector<double> efficiency;
  std::vector<double> naiveEfficiency;
  std::vector<double> warmMs;
  const auto runOne = [&](std::size_t i, Outcome& sink) {
    const Prepared& p = state->prepared[i];
    const auto start = Clock::now();
    const auto result = ad::driver::analyzeAndSimulate(*p.program, p.config);
    const std::string golden = ad::driver::serializeGolden(result, *p.program);
    const double ms = msSince(start);
    ++sink.attempted;
    std::string problem = checkRequest(*p.spec, result, golden, digests, noGoldenFiles);
    if (!problem.empty()) {
      ++sink.failed;
      sink.fail(std::move(problem));
    }
    efficiency[i] = result.plannedEfficiency();
    naiveEfficiency[i] = result.naiveEfficiency();
    return ms;
  };

  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = rep == 0 ? o.processStart : Clock::now();
    clearCaches();
    state = std::make_unique<SweepState>(o.seed);
    efficiency.assign(state->specs.size(), 0.0);
    naiveEfficiency.assign(state->specs.size(), 0.0);
    Outcome warm;
    warmMs.clear();
    for (std::size_t i = 0; i < state->specs.size(); ++i) warmMs.push_back(runOne(i, warm));
    for (auto& p : warm.problems) out.fail("warm-up: " + p);
    setupS.push_back(msSince(start) / 1000.0);
  }

  std::vector<double> latMs;
  const auto windowStart = Clock::now();
  for (std::size_t k = 0;; ++k) {
    const std::size_t pos = k % state->block.size();
    if (pos == 0 && msSince(windowStart) >= o.seconds * 1000.0) break;
    latMs.push_back(runOne(state->block[pos], out));
  }
  const double windowS = msSince(windowStart) / 1000.0;
  const double rss = peakRssMb();
  for (std::size_t i = 0; i < state->specs.size(); ++i) {
    out.notes.push_back("request " + state->specs[i].key + " weight " +
                        std::to_string(kSweepWeights[i]) + " last warm-up " +
                        std::to_string(warmMs[i]) + " ms, efficiency planned " +
                        std::to_string(efficiency[i]) + " naive " +
                        std::to_string(naiveEfficiency[i]));
  }

  addLatencyMetrics(out, latMs, windowS, out.attempted - out.failed);
  out.add("peak_rss_mb", rss, "MiB");
  // Deterministic: one block's mix of per-request efficiencies.
  std::vector<double> blockEff;
  for (const std::size_t i : state->block) blockEff.push_back(efficiency[i]);
  std::sort(blockEff.begin(), blockEff.end());  // the same sum on every seed
  out.add("plan_efficiency", geomean(blockEff), "ratio", blockEff.size());
  out.add("setup_s", median(setupS), "s", setupS.size());
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// service_mix
// ---------------------------------------------------------------------------

ServiceStream::ServiceStream(std::vector<RequestSpec> corpusIn, std::uint64_t seedIn)
    : corpus(std::move(corpusIn)), seed(seedIn) {
  for (std::size_t i = 0; i < corpus.size(); ++i) order.push_back(i);
  shuffle(order, seed);
  for (int i = 0; i < kServiceBlock; ++i) freshSlot.push_back(i < kServiceFresh);
  shuffle(freshSlot, seed + 1);
}

RequestSpec ServiceStream::at(std::uint64_t index) const {
  const std::uint64_t blockNo = index / kServiceBlock;
  const std::size_t pos = index % kServiceBlock;
  std::uint64_t fresh = blockNo * kServiceFresh;
  for (std::size_t s = 0; s < pos; ++s) fresh += freshSlot[s] ? 1 : 0;
  if (freshSlot[pos]) return freshRequest(seed, fresh);
  const std::uint64_t repeat = index - fresh;
  return corpus[order[repeat % order.size()]];
}

ad::service::Request toServiceRequest(const RequestSpec& spec, std::string id) {
  ad::service::Request r;
  r.op = ad::service::Op::kAnalyze;
  r.id = std::move(id);
  r.source = spec.source;
  r.params = spec.params;
  r.processors = spec.processors;
  r.validate = validateName(spec.validate);
  r.simulate = spec.simulate;
  return r;
}

ServiceRun::ServiceRun(const RunOptions& o) : stream(serviceCorpus(), o.seed) {
  ad::service::ServerOptions so;
  so.workers = o.nproc;
  server_ = std::make_unique<ad::service::Server>(so);
  ad::service::SocketOptions wo;
  std::filesystem::create_directories(kRunDir);
  wo.path = std::string(kRunDir) + "/adbench-" + std::to_string(::getpid()) + ".sock";
  socket_ = std::make_unique<ad::service::SocketServer>(*server_, wo);
  const ad::Status started = socket_->start();
  if (!started.isOk()) throw std::runtime_error("socket server: " + started.str());
}

ServiceRun::~ServiceRun() {
  server_->shutdown();
  socket_->stop();
}

namespace {

std::string checkServiceResponse(const RequestSpec& spec,
                                 const ad::Expected<ad::service::Response>& response,
                                 const Digests& digests) {
  if (!response.has_value()) return spec.key + ": " + response.status().str();
  if (response->kind != ad::service::ResponseKind::kOk) {
    return spec.key + ": " + ad::service::responseKindName(response->kind) + " " +
           response->errorCode + " " + response->error;
  }
  if (spec.fresh) return {};
  const Digest* want = digests.find(spec.key);
  if (want == nullptr) return spec.key + ": no digest";
  if (hex64(fnv1a(response->golden)) != want->golden) return spec.key + ": golden digest differs";
  return {};
}

}  // namespace

ServiceSamples ServiceRun::loop(std::size_t clients, double seconds, const Digests& digests,
                                Outcome& out) {
  ServiceSamples samples;
  std::atomic<double> rssAtMark{0.0};
  std::mutex mu;
  std::atomic<std::uint64_t> next{0};
  std::atomic<bool> go{false};
  std::atomic<std::size_t> ready{0};
  Clock::time_point windowStart;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ad::service::ClientOptions co;
      co.jitterSeed = stream.seed + c;
      ad::service::Client client(socket_->path(), co);
      ServiceSamples local;
      Outcome sink;
      const ad::Status connected = client.connect();
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      if (!connected.isOk()) sink.fail("client connect: " + connected.str());
      while (connected.isOk() && msSince(windowStart) < seconds * 1000.0) {
        const std::uint64_t index = next.fetch_add(1);
        const RequestSpec spec = stream.at(index);
        const auto t0 = Clock::now();
        const auto response = client.call(toServiceRequest(spec, "r" + std::to_string(index)));
        const double ms = msSince(t0);
        ++sink.attempted;
        std::string problem = checkServiceResponse(spec, response, digests);
        if (!problem.empty()) {
          ++sink.failed;
          sink.fail(std::move(problem));
          continue;
        }
        local.roundTripMs.push_back(ms);
        local.queueMs.push_back(static_cast<double>(response->queueUs) / 1000.0);
        local.runMs.push_back(static_cast<double>(response->runUs) / 1000.0);
        if (spec.fresh) local.fresh.emplace_back(index, hex64(fnv1a(response->golden)));
        if (index == kRssMarkRequest) rssAtMark.store(peakRssMb());
      }
      const std::lock_guard<std::mutex> lock(mu);
      samples.shed += client.shedRetries();
      samples.roundTripMs.insert(samples.roundTripMs.end(), local.roundTripMs.begin(),
                                 local.roundTripMs.end());
      samples.queueMs.insert(samples.queueMs.end(), local.queueMs.begin(), local.queueMs.end());
      samples.runMs.insert(samples.runMs.end(), local.runMs.begin(), local.runMs.end());
      samples.fresh.insert(samples.fresh.end(), local.fresh.begin(), local.fresh.end());
      out.attempted += sink.attempted;
      out.failed += sink.failed;
      for (auto& p : sink.problems) out.fail(std::move(p));
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  windowStart = Clock::now();
  go.store(true);
  for (auto& t : threads) t.join();
  samples.windowS = msSince(windowStart) / 1000.0;
  samples.rssMb = rssAtMark.load() > 0.0 ? rssAtMark.load() : peakRssMb();
  return samples;
}

void ServiceRun::warmUp(const Digests& digests, Outcome& out) {
  for (std::size_t i = 0; i < stream.corpus.size(); ++i) {
    const RequestSpec& spec = stream.corpus[i];
    ad::Expected<ad::service::Response> response =
        server_->call(toServiceRequest(spec, "warm" + std::to_string(i)));
    std::string problem = checkServiceResponse(spec, response, digests);
    if (!problem.empty()) out.fail("warm-up: " + problem);
  }
}

void checkFresh(const ServiceStream& stream, const ServiceSamples& samples, Outcome& out) {
  const Digests none;
  const std::map<std::string, std::string> noGoldenFiles;
  for (const auto& [index, hash] : samples.fresh) {
    const RequestSpec spec = stream.at(index);
    const Prepared p = prepare(spec);
    const auto result = ad::driver::analyzeAndSimulate(*p.program, p.config);
    const std::string golden = ad::driver::serializeGolden(result, *p.program);
    std::string problem = checkRequest(spec, result, golden, none, noGoldenFiles);
    if (problem.empty() && hex64(fnv1a(golden)) != hash) {
      problem = spec.key + ": service golden differs from the in-process run";
    }
    if (!problem.empty()) {
      ++out.failed;
      out.fail(std::move(problem));
    }
  }
}

namespace {

Outcome timedServiceMix(const RunOptions& o, const Digests& digests) {
  Outcome out;
  std::vector<double> setupS;
  std::unique_ptr<ServiceRun> run;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = rep == 0 ? o.processStart : Clock::now();
    run.reset();
    clearCaches();
    run = std::make_unique<ServiceRun>(o);
    run->warmUp(digests, out);
    setupS.push_back(msSince(start) / 1000.0);
  }

  ServiceSamples samples = run->loop(o.nproc, o.seconds, digests, out);
  const ServiceStream stream = run->stream;
  run.reset();
  checkFresh(stream, samples, out);

  addLatencyMetrics(out, samples.roundTripMs, samples.windowS,
                    static_cast<std::int64_t>(samples.roundTripMs.size()));
  out.add("peak_rss_mb", samples.rssMb, "MiB");
  out.add("plan_efficiency", planEfficiency(stream.corpus, out), "ratio", stream.corpus.size());
  out.add("setup_s", median(setupS), "s", setupS.size());
  return out;
}

}  // namespace

Outcome runTimed(const RunOptions& options, const Digests& digests) {
  if (options.workload == "compile_cold") return timedCompileCold(options, digests);
  if (options.workload == "n_sweep") return timedNSweep(options, digests);
  return timedServiceMix(options, digests);
}

}  // namespace adbench
