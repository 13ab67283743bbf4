// The traced run: replays each distinct request of a workload once, calling
// the layers' public functions in the order analyzeAndSimulate uses them and
// timing each call from outside, then reports per-layer self time, the
// layers' work counts and the tracing overhead.
//
// Drift guard: the replay's golden must equal the untraced pipeline's golden
// for every request, the layer self times must add up to the request wall
// time within 10%, and a second replay must reproduce every work count.
#include <cmath>

#include "bench.hpp"
#include "codes/suite.hpp"
#include "comm/schedule.hpp"
#include "driver/serialize.hpp"
#include "frontend/parser.hpp"
#include "obs/obs.hpp"
#include "symbolic/intern.hpp"
#include "support/thread_pool.hpp"
#include "timed.hpp"

namespace adbench {

namespace {

/// The per-layer metrics, in report order, with their units.
const std::vector<std::pair<std::string, std::string>>& perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"frontend.parse_ms", "ms"},        {"frontend.bytes", "bytes"},
      {"lcg.build_ms", "ms"},             {"symbolic.proof_hits", "count"},
      {"symbolic.proof_misses", "count"}, {"symbolic.arena_bytes", "bytes"},
      {"locality.phase_hits", "count"},   {"locality.phase_misses", "count"},
      {"ilp.build_ms", "ms"},             {"ilp.solve_ms", "ms"},
      {"driver.plan_ms", "ms"},           {"comm.generate_ms", "ms"},
      {"comm.verify_ms", "ms"},           {"comm.schedules", "count"},
      {"comm.messages", "count"},         {"comm.words", "count"},
      {"dsm.model_ms", "ms"},             {"dsm.baseline_ms", "ms"},
      {"dsm.accesses", "count"},          {"dsm.validate_ms", "ms"},
      {"symval.trace_ms", "ms"},          {"symval.regions_closed_form", "count"},
      {"symval.regions_enumerated", "count"}, {"sim.trace_ms", "ms"},
      {"sim.accesses", "count"},          {"driver.serialize_ms", "ms"},
      {"driver.golden_bytes", "bytes"},   {"service.queue_ms_p50", "ms"},
      {"service.queue_ms_p90", "ms"},     {"service.run_ms_p50", "ms"},
      {"service.run_ms_p90", "ms"},       {"service.outside_ms_p50", "ms"},
      {"service.outside_ms_p90", "ms"},   {"service.shed", "count"},
      {"support.batch_parallel_ratio", "ratio"}, {"request_wall_ms", "ms"},
      {"self_time_coverage", "ratio"},    {"trace_overhead_pct", "%"},
  };
  return names;
}

/// Per-layer totals of one replay pass. Times are self times: the replay
/// calls each layer directly, so no span nests inside another.
struct Layers {
  std::map<std::string, double> ms;
  std::map<std::string, std::int64_t> counts;
  double wallMs = 0.0;

  template <typename F>
  auto span(const char* name, F&& fn) {
    const auto start = Clock::now();
    auto result = fn();
    ms[name] += msSince(start);
    return result;
  }

  [[nodiscard]] double selfMs() const {
    double total = 0.0;
    for (const auto& [name, v] : ms) total += v;
    return total;
  }
};

std::int64_t evalInt(const ad::sym::Expr& e, const ad::ir::Bindings& params) {
  return e.evaluate(params).asInteger();
}

std::int64_t counterValue(const char* name) { return ad::obs::metrics().counter(name).value(); }

std::int64_t accessesOf(const ad::dsm::SimulationResult& sim) {
  std::int64_t n = 0;
  for (const auto& p : sim.phases) n += p.localAccesses + p.remoteAccesses;
  return n;
}

/// One request through the layers, mirroring analyzeAndSimulate stage by
/// stage. Returns the golden; the verdict lands in `problem`.
std::string replayOne(const RequestSpec& spec, Layers& L, const Digests& digests,
                      const std::map<std::string, std::string>& goldenFiles,
                      std::string& problem) {
  using namespace ad;
  // A suite code built in C++ has no parse step; building it is not part of
  // the request.
  std::unique_ptr<ir::Program> program;
  if (spec.source.empty()) program = std::make_unique<ir::Program>(spec.build());
  const auto start = Clock::now();
  if (!spec.source.empty()) {
    program = L.span("frontend.parse_ms", [&] {
      return std::make_unique<ir::Program>(frontend::parseProgram(spec.source));
    });
    L.counts["frontend.bytes"] += static_cast<std::int64_t>(spec.source.size());
  }
  const ir::Bindings params = codes::bindParams(*program, spec.params);
  const std::int64_t h = spec.processors;

  lcg::LCG graph = L.span("lcg.build_ms", [&] { return lcg::buildLCG(*program, params, h); });
  ilp::Model model =
      L.span("ilp.build_ms", [&] { return ilp::buildModel(graph, params, h, ilp::CostParams{}); });
  ilp::Solution solution = L.span("ilp.solve_ms", [&] { return model.solve(); });
  dsm::MachineParams machine;
  machine.processors = h;
  dsm::ExecutionPlan plan = L.span("driver.plan_ms", [&] {
    return driver::derivePlan(*program, graph, model, solution, params, h, machine);
  });

  std::vector<comm::CommSchedule> schedules;
  for (const auto& [array, dists] : plan.data) {
    const std::int64_t size = evalInt(program->array(array).size, params);
    for (std::size_t k = 1; k < dists.size(); ++k) {
      auto sched = L.span("comm.generate_ms", [&]() -> std::optional<comm::CommSchedule> {
        if (dists[k - 1] == dists[k]) return std::nullopt;
        if (!dists[k - 1].hasOwner() || !dists[k].hasOwner()) return std::nullopt;
        if (!dsm::redistributionMovesData(*program, array, k)) return std::nullopt;
        return comm::generateGlobal(array, size, dists[k - 1], dists[k], h);
      });
      if (!sched) continue;
      const bool verified = L.span("comm.verify_ms", [&] {
        return comm::verifiesRedistribution(*sched, size, dists[k - 1], dists[k], h);
      });
      if (!verified) problem = spec.key + ": redistribution schedule does not verify";
      L.counts["comm.schedules"] += 1;
      L.counts["comm.messages"] += static_cast<std::int64_t>(sched->messageCount());
      L.counts["comm.words"] += sched->totalWords();
      schedules.push_back(std::move(*sched));
    }
  }

  dsm::SimulationResult planned;
  dsm::SimulationResult naive;
  if (spec.simulate) {
    planned =
        L.span("dsm.model_ms", [&] { return dsm::simulate(*program, params, machine, plan); });
    naive = L.span("dsm.baseline_ms", [&] {
      return dsm::simulate(*program, params, machine,
                           dsm::ExecutionPlan::naiveBlock(*program, params, h));
    });
    L.counts["dsm.accesses"] += accessesOf(planned) + accessesOf(naive);
  }

  const driver::ValidateMode mode = spec.validate;
  std::optional<sim::TraceResult> trace;
  std::optional<loc::SymbolicCounts> symbolic;
  if (mode == driver::ValidateMode::kTrace || mode == driver::ValidateMode::kBoth) {
    sim::SimOptions so;
    so.processors = h;
    trace = L.span("sim.trace_ms", [&] { return sim::simulateTrace(*program, params, plan, so); });
    L.counts["sim.accesses"] += trace->totalAccesses;
  }
  if (mode == driver::ValidateMode::kSymbolic || mode == driver::ValidateMode::kBoth) {
    loc::SymvalOptions so;
    so.processors = h;
    symbolic =
        L.span("symval.trace_ms", [&] { return loc::symbolicTrace(*program, params, plan, so); });
    L.counts["symval.regions_closed_form"] += symbolic->closedFormRegions;
    L.counts["symval.regions_enumerated"] += symbolic->enumeratedRegions;
  }
  std::string difference;
  std::optional<dsm::LocalityValidationReport> check;
  if (mode != driver::ValidateMode::kNone) {
    check = L.span("dsm.validate_ms", [&] {
      if (trace && symbolic) {
        difference =
            loc::describeTraceDifference(symbolic->observed, trace->observed).value_or("");
      }
      return dsm::validateLocality(graph, plan, trace ? trace->observed : symbolic->observed,
                                   params, h);
    });
  }

  driver::PipelineResult result{std::move(graph),     std::move(model),   std::move(solution),
                                std::move(plan),      std::move(schedules), std::move(planned),
                                std::move(naive),     h,                  std::move(trace),
                                std::move(symbolic),  std::move(check),   std::move(difference),
                                {}};
  std::string golden =
      L.span("driver.serialize_ms", [&] { return driver::serializeGolden(result, *program); });
  L.counts["driver.golden_bytes"] += static_cast<std::int64_t>(golden.size());
  L.wallMs += msSince(start);

  if (problem.empty()) problem = checkRequest(spec, result, golden, digests, goldenFiles);
  return golden;
}

/// The untraced reference: the pipeline's own entry point, timed over the
/// same scope as the replay (parse included, C++ code building excluded).
std::string untracedOne(const RequestSpec& spec, double& wallMs) {
  std::unique_ptr<ad::ir::Program> program;
  if (spec.source.empty()) program = std::make_unique<ad::ir::Program>(spec.build());
  const auto start = Clock::now();
  if (!spec.source.empty()) {
    program = std::make_unique<ad::ir::Program>(ad::frontend::parseProgram(spec.source));
  }
  const auto result = ad::driver::analyzeAndSimulate(*program, configFor(spec, *program));
  std::string golden = ad::driver::serializeGolden(result, *program);
  wallMs += msSince(start);
  return golden;
}

struct Pass {
  Layers layers;
  std::vector<std::string> goldens;
  std::int64_t proofHits = 0, proofMisses = 0, phaseHits = 0, phaseMisses = 0;
  std::size_t arenaBytes = 0;  ///< interned-expression arena after the pass
};

struct Replay {
  std::vector<RequestSpec> specs;
  std::map<std::string, std::string> goldenFiles;
  bool cold = false;  ///< clear the memos before every pass (compile_cold)

  double untracedPass(std::vector<std::string>* goldens) const {
    if (cold) clearCaches();
    double wallMs = 0.0;
    for (const RequestSpec& spec : specs) {
      std::string golden = untracedOne(spec, wallMs);
      if (goldens != nullptr) goldens->push_back(std::move(golden));
    }
    return wallMs;
  }

  Pass tracedPass(const Digests& digests, Outcome& out) const {
    if (cold) clearCaches();
    Pass pass;
    const std::int64_t hits0 = counterValue("ad.intern.proof_hits");
    const std::int64_t misses0 = counterValue("ad.intern.proof_misses");
    const std::int64_t phaseHits0 = counterValue("ad.loc.phase_hits");
    const std::int64_t phaseMisses0 = counterValue("ad.loc.phase_misses");
    for (const RequestSpec& spec : specs) {
      std::string problem;
      pass.goldens.push_back(replayOne(spec, pass.layers, digests, goldenFiles, problem));
      if (!problem.empty()) out.fail("replay: " + problem);
    }
    pass.proofHits = counterValue("ad.intern.proof_hits") - hits0;
    pass.proofMisses = counterValue("ad.intern.proof_misses") - misses0;
    pass.phaseHits = counterValue("ad.loc.phase_hits") - phaseHits0;
    pass.phaseMisses = counterValue("ad.loc.phase_misses") - phaseMisses0;
    pass.arenaBytes = ad::sym::ExprIntern::global().bytes();
    return pass;
  }
};

/// Work counts that must repeat exactly between two replays.
std::map<std::string, std::int64_t> workCounts(const Pass& pass) {
  std::map<std::string, std::int64_t> counts = pass.layers.counts;
  counts["symbolic.proof_hits"] = pass.proofHits;
  counts["symbolic.proof_misses"] = pass.proofMisses;
  counts["locality.phase_hits"] = pass.phaseHits;
  counts["locality.phase_misses"] = pass.phaseMisses;
  return counts;
}

}  // namespace

Outcome runTraced(const RunOptions& o, const Digests& digests) {
  Outcome out;
  Replay replay;
  std::unique_ptr<CompileState> compile;
  if (o.workload == "compile_cold") {
    compile = std::make_unique<CompileState>(o.seed);
    replay.specs = compile->specs;
    replay.goldenFiles = compile->goldenFiles;
    replay.cold = true;
  } else if (o.workload == "n_sweep") {
    replay.specs = nSweepCorpus();
  } else {
    // The fixed corpus plus as many fresh programs as the stream carries per
    // corpus cycle (two in ten).
    replay.specs = serviceCorpus();
    const std::size_t freshCount = replay.specs.size() / 4;
    for (std::size_t i = 0; i < freshCount; ++i) replay.specs.push_back(freshRequest(o.seed, i));
  }

  // Untraced pass (reference goldens; also the warm-up for warm workloads),
  // an untraced timing pass, then two traced passes.
  std::vector<std::string> reference;
  (void)replay.untracedPass(&reference);
  const double untracedMs = replay.untracedPass(nullptr);
  const Pass first = replay.tracedPass(digests, out);
  const Pass second = replay.tracedPass(digests, out);

  std::map<std::string, double> extra;  // workload-specific per-layer values
  if (compile != nullptr) {
    // jobs=1 over jobs=nproc, cold batches, alternating, medians of three.
    std::vector<double> serial, parallel;
    for (int rep = 0; rep < 3; ++rep) {
      serial.push_back(compile->runBatch(1, digests, &out));
      parallel.push_back(compile->runBatch(o.nproc, digests, &out));
    }
    extra["support.batch_parallel_ratio"] = median(serial) / median(parallel);
  } else if (o.workload == "service_mix") {
    // Queue, run and protocol time come from the service itself.
    ServiceRun run(o);
    run.warmUp(digests, out);
    ServiceSamples s = run.loop(o.nproc, std::min(o.seconds, 3.0), digests, out);
    std::vector<double> outside;
    for (std::size_t i = 0; i < s.roundTripMs.size(); ++i) {
      outside.push_back(s.roundTripMs[i] - s.queueMs[i] - s.runMs[i]);
    }
    extra["service.queue_ms_p50"] = percentile(s.queueMs, 0.5);
    extra["service.queue_ms_p90"] = percentile(s.queueMs, 0.9);
    extra["service.run_ms_p50"] = percentile(s.runMs, 0.5);
    extra["service.run_ms_p90"] = percentile(s.runMs, 0.9);
    extra["service.outside_ms_p50"] = percentile(outside, 0.5);
    extra["service.outside_ms_p90"] = percentile(outside, 0.9);
    extra["service.shed"] = static_cast<double>(s.shed);
    checkFresh(run.stream, s, out);
  }

  out.attempted += static_cast<std::int64_t>(replay.specs.size());
  for (std::size_t i = 0; i < replay.specs.size(); ++i) {
    if (first.goldens[i] != reference[i]) {
      ++out.failed;
      out.fail(replay.specs[i].key + ": replay golden differs from analyzeAndSimulate's");
    }
  }
  const auto firstCounts = workCounts(first);
  const auto secondCounts = workCounts(second);
  for (const auto& [name, value] : firstCounts) {
    const auto it = secondCounts.find(name);
    if (it == secondCounts.end() || it->second != value) {
      out.fail("work count " + name + " differs between two replays");
    }
  }
  const double coverage = first.layers.selfMs() / first.layers.wallMs;
  if (std::abs(coverage - 1.0) > 0.1) {
    out.fail("layer self times cover " + std::to_string(coverage) + " of request wall time");
  }

  const std::size_t n = replay.specs.size();
  for (const auto& [name, unit] : perLayerMetrics()) {
    double value = 0.0;
    if (const auto it = first.layers.ms.find(name); it != first.layers.ms.end()) value = it->second;
    if (const auto it = firstCounts.find(name); it != firstCounts.end()) {
      value = static_cast<double>(it->second);
    }
    if (const auto it = extra.find(name); it != extra.end()) value = it->second;
    if (name == "symbolic.arena_bytes") value = static_cast<double>(first.arenaBytes);
    if (name == "request_wall_ms") value = first.layers.wallMs;
    if (name == "self_time_coverage") value = coverage;
    if (name == "trace_overhead_pct") {
      value = 100.0 * (first.layers.wallMs - untracedMs) / untracedMs;
    }
    out.add(name, value, unit, n);
  }
  return out;
}

}  // namespace adbench
