#include "driver/pipeline.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>

#include "obs/obs.hpp"
#include "support/checked_int.hpp"
#include "support/diagnostics.hpp"
#include "support/fault.hpp"
#include "support/status.hpp"
#include "support/thread_pool.hpp"

namespace ad::driver {

namespace {

using ir::evalInt;

/// Chunk size for phase k: ILP solution if available, greedy BLOCK otherwise.
std::int64_t chunkFor(const ir::Program& program, const ilp::Model& model,
                      const ilp::Solution& solution, std::size_t k, const ir::Bindings& params,
                      std::int64_t processors) {
  obs::Counter& fallbacks = obs::metrics().counter("ad.ilp.greedy_fallbacks");
  if (solution.feasible) {
    try {
      return solution.chunkOf(model, k);
    } catch (const ProgramError&) {
      // phase without ILP variable: fall through
    }
  }
  fallbacks.add(1);
  const std::int64_t trip = ir::parallelTripCount(program.phase(k), params);
  return std::max<std::int64_t>(1, ceilDiv(trip, processors));
}

/// Distribution serving one LCG node: BLOCK-CYCLIC(slope * chunk), folded
/// when the node carries reverse storage symmetry.
dsm::DataDistribution nodeDistribution(const lcg::Node& node, std::int64_t chunk,
                                       const ir::Bindings& params) {
  std::int64_t block = std::max<std::int64_t>(1, chunk);
  if (node.info->side) {
    const std::int64_t slope = evalInt(node.info->side->slope, params, "slope");
    if (slope > 0) block = checkedMul(slope, chunk);
  }
  for (const auto& s : node.info->storage) {
    if (s.kind == loc::StorageConstraint::Kind::kReverse) {
      const std::int64_t fold = evalInt(s.distance, params, "reverse distance");
      if (fold >= 1) return dsm::DataDistribution::foldedBlockCyclic(block, fold);
    }
  }
  return dsm::DataDistribution::blockCyclic(block);
}

}  // namespace

std::optional<ValidateMode> parseValidateMode(std::string_view name) {
  static constexpr std::pair<std::string_view, ValidateMode> kModes[] = {
      {"none", ValidateMode::kNone},
      {"trace", ValidateMode::kTrace},
      {"symbolic", ValidateMode::kSymbolic},
      {"both", ValidateMode::kBoth}};
  for (const auto& [modeName, mode] : kModes) {
    if (name == modeName) return mode;
  }
  return std::nullopt;
}

dsm::ExecutionPlan derivePlan(const ir::Program& program, const lcg::LCG& lcg,
                              const ilp::Model& model, const ilp::Solution& solution,
                              const ir::Bindings& params, std::int64_t processors,
                              const dsm::MachineParams& machine) {
  // Transfers are priced on the plan's processor count.
  dsm::MachineParams pricing = machine;
  pricing.processors = processors;
  dsm::ExecutionPlan plan;
  const std::size_t numPhases = program.phases().size();
  for (std::size_t k = 0; k < numPhases; ++k) {
    plan.iteration.push_back(
        dsm::IterationDistribution{chunkFor(program, model, solution, k, params, processors)});
  }

  for (const auto& g : lcg.graphs()) {
    // Array replication (Section 4.3a "including array replication"): an
    // array no phase ever writes is a read-only table — one copy per
    // processor makes every access local with no consistency obligations.
    bool everWritten = false;
    for (const auto& ph : program.phases()) {
      everWritten = everWritten || (ph.writes(g.array) && !ph.isPrivatized(g.array));
    }
    if (!everWritten) {
      plan.data[g.array] =
          std::vector<dsm::DataDistribution>(numPhases, dsm::DataDistribution::replicated());
      plan.halo[g.array] = std::vector<std::int64_t>(numPhases, 0);
      continue;
    }

    std::vector<dsm::DataDistribution> dists(
        numPhases, dsm::DataDistribution::blocked(
                       evalInt(program.array(g.array).size, params, "array size"), processors));
    // Per-phase target distribution: chain heads fix the distribution for
    // the whole chain, except that reverse-storage nodes get their own
    // folded segment (entered by an explicit redistribution).
    std::vector<std::optional<dsm::DataDistribution>> byNode(g.nodes.size());
    for (const auto& chain : g.chains()) {
      std::optional<dsm::DataDistribution> current;
      for (const std::size_t n : chain) {
        const lcg::Node& node = g.nodes[n];
        if (node.attr == loc::Attr::kPrivatized) continue;  // scratch: carry previous
        const bool reverse =
            std::any_of(node.info->storage.begin(), node.info->storage.end(), [](const auto& s) {
              return s.kind == loc::StorageConstraint::Kind::kReverse;
            });
        if (!current || reverse) {
          const std::int64_t chunk = plan.iteration[node.phase].chunk;
          current = nodeDistribution(node, chunk, params);
        }
        byNode[n] = current;
      }
    }
    // Expand node distributions to all phases: each anchor's distribution is
    // in effect from its phase until the next anchor; phases before the
    // first anchor pre-place the data where the first accessor wants it.
    std::vector<std::pair<std::size_t, dsm::DataDistribution>> anchors;
    for (std::size_t n = 0; n < g.nodes.size(); ++n) {
      if (byNode[n]) anchors.emplace_back(g.nodes[n].phase, *byNode[n]);
    }
    if (!anchors.empty()) {
      std::size_t ai = 0;
      for (std::size_t k = 0; k < numPhases; ++k) {
        while (ai + 1 < anchors.size() && anchors[ai + 1].first <= k) ++ai;
        dists[k] = (k < anchors[0].first) ? anchors[0].second : anchors[ai].second;
      }
    }
    plan.data[g.array] = std::move(dists);

    // Replicated halo widths: how far a node's per-iteration region extends
    // beyond its own iteration tile [a*i, a*(i+1)), evaluated numerically
    // over the ID terms (forward and backward reach).
    std::vector<std::int64_t> halos(numPhases, 0);
    for (std::size_t n = 0; n < g.nodes.size(); ++n) {
      const lcg::Node& node = g.nodes[n];
      const auto& terms = node.info->id.terms();
      if (terms.empty() || !node.info->id.uniformParallelStride()) continue;
      try {
        const std::int64_t a =
            std::abs(evalInt(terms[0].deltaP, params, "parallel stride"));
        if (a == 0) continue;
        // Per-term reach beyond the iteration tile [0, a). Stencil-scale
        // reach (<= 2a) becomes replicated halo; far-shifted copies (the
        // Delta_d/Delta_r symmetries) are excluded — they are served by the
        // distribution's own alignment (or folded form), not replication.
        // A proven overlap width extends the cutoff: reach inside Delta_s is
        // window re-reading, not a shifted copy, and Theorem 1c replicates
        // exactly that region (deep multi-row windows exceed 2a while their
        // every row still overlaps the neighbour tile). This keeps the plan
        // consistent with the ILP's frontier costs, which already charge the
        // refresh at the full overlap distance.
        std::optional<std::int64_t> overlapWidth;
        if (node.info->overlapDistance) {
          overlapWidth = evalInt(*node.info->overlapDistance, params, "overlap width");
        }
        std::int64_t halo = 0;
        for (const auto& t : terms) {
          const std::int64_t base = evalInt(t.tau0, params, "term base");
          const std::int64_t top = base + evalInt(t.seqSpan, params, "term span");
          const std::int64_t reach =
              std::max<std::int64_t>({0, top - (a - 1), -base});
          if (reach <= 2 * a || (overlapWidth && reach <= *overlapWidth)) {
            halo = std::max(halo, reach);
          }
        }
        // Replication must pay for itself: compare the frontier-refresh cost
        // against serving the boundary elements remotely. With tiny blocks
        // (block-1 distributions of short DOALLs) the refresh latency loses.
        // Exception: an incident L edge commits this phase to running
        // communication-free, and frontier replication is Theorem 1c's
        // mechanism for that promise — the halo is mandatory, not a cost call.
        const bool lPromise =
            std::any_of(g.edges.begin(), g.edges.end(), [n](const auto& e) {
              return e.to == n && e.label == loc::EdgeLabel::kLocal;
            });
        // Degraded mode pins the conservative side of the cost call: keep the
        // halo. Refreshed replicas are always fresh (Theorem 1c); dropping
        // them is purely a cost optimization we no longer trust.
        const bool haloForced =
            halo > 0 && !lPromise &&
            (AD_FAULT_POINT("plan.halo") || support::budgetCompromised());
        if (haloForced) {
          support::recordDegradation(
              "plan.halo", "array=" + g.array + " phase=F" + std::to_string(node.phase + 1),
              "halo kept (mandatory)",
              support::budgetCompromised() ? support::currentDegradationCause() : "fault");
        }
        if (halo > 0 && !lPromise && !haloForced) {
          const auto& dist = plan.data.at(g.array)[node.phase];
          if (dist.hasOwner()) {
            // Without the halo, each boundary's `halo` elements are read
            // remotely once, instead of refreshed in both directions.
            const dsm::RedistributionStats refresh = dsm::refreshTraffic(
                evalInt(program.array(g.array).size, params, "size"), dist.block, halo);
            const double remote =
                0.5 * static_cast<double>(refresh.wordsMoved) * machine.remoteAccess;
            if (pricing.transferTime(refresh.messages, refresh.wordsMoved) >= remote) halo = 0;
          }
        }
        halos[node.phase] = halo;
      } catch (const AnalysisError&) {
        // Symbolic strides (index-dependent): no halo model; accesses will
        // be charged individually by the simulator.
      }
    }
    plan.halo[g.array] = std::move(halos);
  }
  return plan;
}

PipelineResult analyzeAndSimulate(const ir::Program& program, const PipelineConfig& config,
                                  support::ThreadPool* pool) {
  obs::Span pipelineSpan("pipeline.analyze_and_simulate");
  obs::metrics().counter("ad.driver.pipelines").add(1);
  // Registered up front (not only at their call sites) so the exported
  // metrics schema is stable even for inputs that never trigger them.
  for (const char* name :
       {"ad.desc.homogenizations", "ad.desc.offset_adjustments", "ad.degrade.events",
        "ad.budget.exhaustions", "ad.fault.injected", "ad.symval.local_accesses",
        "ad.symval.remote_accesses", "ad.symval.remote_bytes", "ad.symval.regions_closed_form",
        "ad.symval.regions_enumerated", "ad.symval.redistributed_words",
        "ad.symval.frontier_words", "ad.dsm.regions_enumerated", "ad.dsm.count_passes"}) {
    obs::metrics().counter(name);
  }

  // The run's budget (when one is configured) and degradation ledger. The
  // scopes are thread-local here; ThreadPool::submit forwards them to every
  // per-array subtask this run fans out.
  std::optional<support::Budget> budget;
  std::optional<support::BudgetScope> budgetScope;
  if (!config.budget.unlimited() || config.cancel != nullptr) {
    budget.emplace(config.budget, config.cancel);
    budgetScope.emplace(&*budget);
  }
  support::DegradationReport degradationLedger;
  support::DegradationScope degradationScope(&degradationLedger);

  // Each stage runs under its own span so --trace-out shows exactly where
  // analysis time goes (descriptor/LCG work vs. ILP vs. simulation), and
  // under an ErrorContext frame so escaping failures name their stage.
  // Every stage opens with a cancellation check: a cancelled run must abort
  // with a structured kCancelled failure at the next boundary, not grind
  // through the remaining stages on the degradation ladder. (The prover
  // additionally polls the token on every budget step, so the gap between
  // boundary checks is itself bounded.)
  dsm::MachineParams machine;
  machine.processors = config.processors;
  std::optional<lcg::LCG> lcgGraph;
  {
    obs::Span s("pipeline.lcg");
    ErrorContext stage("stage", "lcg");
    support::throwIfCancelled();
    lcgGraph.emplace(lcg::buildLCG(program, config.params, config.processors, pool));
  }
  std::optional<ilp::Model> model;
  {
    obs::Span s("pipeline.ilp_build");
    ErrorContext stage("stage", "ilp_build");
    support::throwIfCancelled();
    model.emplace(ilp::buildModel(*lcgGraph, config.params, config.processors, machine));
  }
  ilp::Solution solution;
  {
    obs::Span s("pipeline.ilp_solve");
    ErrorContext stage("stage", "ilp_solve");
    support::throwIfCancelled();
    solution = model->solve();
  }
  dsm::ExecutionPlan plan;
  {
    obs::Span s("pipeline.plan");
    ErrorContext stage("stage", "plan");
    support::throwIfCancelled();
    plan = derivePlan(program, *lcgGraph, *model, solution, config.params,
                      config.processors, machine);
  }

  // Communication schedules for every distribution change.
  std::vector<comm::CommSchedule> schedules;
  {
    obs::Span s("pipeline.comm");
    ErrorContext stage("stage", "comm");
    support::throwIfCancelled();
    for (const auto& [array, dists] : plan.data) {
      const std::int64_t size = evalInt(program.array(array).size, config.params, "array size");
      for (std::size_t k = 1; k < dists.size(); ++k) {
        if (!dsm::redistributes(program, plan, array, k)) continue;
        auto sched = comm::generateGlobal(array, size, dists[k - 1], dists[k], config.processors);
        AD_CHECK(comm::verifiesRedistribution(sched, size, dists[k - 1], dists[k],
                                              config.processors));
        schedules.push_back(std::move(sched));
      }
    }
  }

  PipelineResult result{std::move(*lcgGraph),
                        std::move(*model),
                        std::move(solution),
                        std::move(plan),
                        std::move(schedules),
                        {},
                        {},
                        config.processors,
                        {},
                        {},
                        {},
                        {},
                        {}};
  const ValidateMode mode = config.validate;
  const bool symbolic = mode == ValidateMode::kSymbolic || mode == ValidateMode::kBoth;
  if (mode == ValidateMode::kTrace || mode == ValidateMode::kBoth) {
    obs::Span s("pipeline.trace_sim");
    ErrorContext stage("stage", "trace_sim");
    support::throwIfCancelled();
    sim::SimOptions so;
    so.processors = config.processors;
    result.trace = sim::simulateTrace(program, config.params, result.plan, so);
  }
  // The one count of the derived plan: the cost model and the symbolic
  // validator read the same exact counts, however each region was counted.
  std::optional<dsm::PlanCounts> counts;
  if (config.simulatePlan || symbolic) {
    obs::Span s("pipeline.dsm_model");
    ErrorContext stage("stage", "dsm_model");
    support::throwIfCancelled();
    counts = dsm::countPlan(program, config.params, result.plan, config.processors);
    if (config.simulatePlan) result.planned = dsm::simulate(program, machine, *counts);
  }
  if (symbolic) {
    obs::Span s("pipeline.symval");
    ErrorContext stage("stage", "symval");
    support::throwIfCancelled();
    result.symbolic = loc::symbolicTrace(program, *counts, config.processors);
  }
  if (config.simulateBaseline) {
    obs::Span s("pipeline.dsm_baseline");
    ErrorContext stage("stage", "dsm_baseline");
    support::throwIfCancelled();
    result.naive = dsm::simulate(program, config.params, machine,
                                 dsm::ExecutionPlan::naiveBlock(program, config.params,
                                                                config.processors));
  }
  if (mode == ValidateMode::kBoth) {
    // Differential oracle check: the two observed traces must be identical
    // field for field (docs/VALIDATION.md).
    if (auto diff = loc::describeTraceDifference(result.symbolic->observed,
                                                 result.trace->observed)) {
      result.symbolicDifference = std::move(*diff);
    }
  }
  if (mode != ValidateMode::kNone) {
    obs::Span s("pipeline.validate");
    ErrorContext stage("stage", "validate");
    const dsm::ObservedTrace& observed =
        result.trace ? result.trace->observed : result.symbolic->observed;
    result.localityCheck = dsm::validateLocality(result.lcg, result.plan, observed,
                                                 config.params, config.processors);
  }
  result.degradation = degradationLedger.snapshot();
  return result;
}

Expected<PipelineResult> analyzeAndSimulateChecked(const ir::Program& program,
                                                   const PipelineConfig& config,
                                                   support::ThreadPool* pool) {
  // Frames parked by an unrelated, internally-recovered exception must not
  // leak into this boundary's context chain.
  clearPendingErrorContext();
  try {
    return analyzeAndSimulate(program, config, pool);
  } catch (...) {
    return statusFromCurrentException();
  }
}

std::vector<Expected<PipelineResult>> analyzeBatch(const std::vector<BatchItem>& batch,
                                                   std::size_t jobs) {
  obs::Span span("pipeline.analyze_batch");
  obs::metrics().counter("ad.driver.batch_items").add(static_cast<std::int64_t>(batch.size()));
  obs::Counter& errors = obs::metrics().counter("ad.driver.batch_errors");

  std::vector<Expected<PipelineResult>> results(batch.size());
  // `ran[i]` flips once item i's own guard is in charge of results[i]. Not
  // vector<bool>: the slots are written concurrently and need distinct
  // memory locations.
  std::vector<char> ran(batch.size(), 0);

  // Per-item isolation for an ambient (caller-installed) budget. The pool
  // forwards the submitting thread's budget to every task, so without the
  // split below the whole batch would charge ONE shared allowance: the first
  // expensive item exhausts it and every item still running — or not yet
  // started — degrades with it (budget starvation). Each item instead gets
  // its own sub-budget: an equal share of the remaining steps, the parent's
  // wall-clock deadline (a point in time, shared by construction), and the
  // parent's cancellation token, so exhaustion stays per-item while
  // cancellation still stops the whole batch. Items whose config carries its
  // own budget/cancel are unaffected (analyzeAndSimulate installs that one
  // on top, exactly as before).
  support::Budget* ambient = support::Budget::current();
  std::vector<std::unique_ptr<support::Budget>> subBudgets(batch.size());
  if (ambient != nullptr && !batch.empty()) {
    const support::BudgetLimits share = ambient->subLimits(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      subBudgets[i] = std::make_unique<support::Budget>(share, ambient->cancelToken());
    }
  }

  support::ThreadPool pool(jobs == 0 ? 1 : jobs);
  support::TaskGroup group(pool);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    group.run([&batch, &results, &errors, &ran, &pool, &subBudgets, i] {
      ran[i] = 1;
      const BatchItem& item = batch[i];
      const std::string label =
          item.label.empty() ? "item" + std::to_string(i) : item.label;
      clearPendingErrorContext();
      try {
        ErrorContext code("code", label);
        std::optional<support::BudgetScope> sub;
        if (subBudgets[i] != nullptr) sub.emplace(subBudgets[i].get());
        // Task boundary: a batch cancelled while this item sat in the queue
        // answers kCancelled immediately instead of starting doomed work.
        support::throwIfCancelled();
        results[i] = analyzeAndSimulate(*item.program, item.config, &pool);
      } catch (...) {
        // One poisoned item yields a structured per-item Status — it never
        // abandons its siblings and never crosses the pool boundary.
        errors.add(1);
        results[i] = statusFromCurrentException();
      }
    });
  }
  try {
    group.wait();
  } catch (...) {
    // A failure in the pool machinery itself (e.g. the pool.task fault
    // point) fires before an item's guard existed. wait() still drained the
    // group, so finished siblings keep their results; items whose task was
    // killed get the structured status instead of the "unset" sentinel.
    const Status st = statusFromCurrentException();
    errors.add(1);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!ran[i]) results[i] = st;
    }
  }
  return results;
}

std::string PipelineResult::report(const ir::Program& program) const {
  std::ostringstream os;
  os << "=== LCG ===\n" << lcg.str();
  os << "\n=== ILP model (Table-2 form) ===\n" << model.str();
  os << "\n=== Solution ===\n";
  if (solution.feasible) {
    for (std::size_t i = 0; i < model.variables().size(); ++i) {
      os << "  " << model.variables()[i].name << " = " << solution.values[i] << "\n";
    }
    os << "  objective = " << solution.objective << "\n";
  } else {
    os << "  (infeasible: greedy per-phase chunks used)\n";
  }
  os << "\n=== Iteration distributions ===\n";
  for (std::size_t k = 0; k < plan.iteration.size(); ++k) {
    os << "  " << program.phase(k).name() << ": CYCLIC(" << plan.iteration[k].chunk << ")\n";
  }
  os << "\n=== Communication schedules ===\n";
  for (const auto& s : schedules) {
    os << "  " << s.array() << ": " << s.messageCount() << " msgs, " << s.totalWords()
       << " words\n";
  }
  if (!planned.phases.empty()) {
    os << "\n=== Simulated execution (H = " << processors << ") ===\n";
    os << "LCG-derived plan:\n" << planned.str();
    os << "  efficiency = " << plannedEfficiency() << "\n";
  }
  if (!naive.phases.empty()) {
    os << "Naive BLOCK baseline:\n" << naive.str();
    os << "  efficiency = " << naiveEfficiency() << "\n";
  }
  if (trace) {
    os << "\n=== Trace replay (H = " << trace->processors << ") ===\n"
       << "trace: H=" << trace->processors << " accesses=" << trace->totalAccesses
       << " local_fraction=" << trace->observed.localFraction() << "\n"
       << trace->observed.str();
  }
  if (symbolic) {
    os << "\n=== Symbolic (closed-form) validation (H = " << symbolic->processors << ") ===\n"
       << "symval: H=" << symbolic->processors << " accesses=" << symbolic->totalAccesses
       << " local_fraction=" << symbolic->observed.localFraction()
       << " regions(closed-form=" << symbolic->closedFormRegions
       << ", enumerated=" << symbolic->enumeratedRegions << ")\n"
       << symbolic->observed.str();
  }
  if (trace && symbolic) {
    os << (symbolicAgrees()
               ? "  DIFFERENTIAL: symbolic and enumerated traces agree exactly\n"
               : "  DIFFERENTIAL MISMATCH: " + symbolicDifference + "\n");
  }
  if (!degradation.empty()) {
    os << "\n=== Degradation (conservative fallbacks) ===\n";
    for (const auto& d : degradation) os << "  " << d.str() << "\n";
  }
  if (localityCheck) {
    os << "\n=== Theorem 1/2 validation ===\n"
       << localityCheck->str()
       << (localityCheck->ok() ? "  VALIDATED: observed locality matches the LCG labels\n"
                               : "  FAILED: observed locality contradicts the LCG labels\n");
  }
  os << "\n=== Metrics (" << obs::kMetricsSchema << ") ===\n" << obs::metrics().toJson();
  return os.str();
}

}  // namespace ad::driver
