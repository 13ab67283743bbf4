// DSM access-trace replay: the enumerating validation oracle.
//
// dsm::simulate() charges model cycles from closed-form access counts; this
// module instead replays every access and tallies what the paper's Theorems
// 1 and 2 predict: per-phase, per-array, per-processor local vs. remote
// access counts, and the words and messages of every redistribution. It
// reports them as a dsm::PlanCounts, the shape the closed form reports.
//
// The replay is serial. Each phase is walked once as innermost runs
// (ir::forEachRun: per ref a start address and a step); every access is
// charged to the processor that executes its parallel iteration under the
// plan's CYCLIC(p_k) schedule and classified against the plan's
// BLOCK-CYCLIC(b) owner maps, one loop of table loads per (ref, run).
// Redistributions entering a phase are counted element by element against
// those owner maps, so this oracle stays independent of the owner-run
// counting core that loc::symbolicTrace shares with the cost model
// (scripts/ci.sh symval fails if src/sim/ names it). Which communication a
// plan runs is decided by dsm::redistributes and dsm::frontierRefresh.
//
// The result feeds dsm::validateLocality(), which compares the observed
// communication against the LCG's Theorem-1/2 edge labels.
#pragma once

#include <cstdint>

#include "dsm/access_count.hpp"
#include "dsm/validate.hpp"

namespace ad::sim {

struct SimOptions {
  std::int64_t processors = 8;  ///< simulated PEs
};

struct TraceResult {
  dsm::ObservedTrace observed;      ///< dsm::observedTrace(program, counts)
  std::int64_t processors = 1;      ///< simulated PEs
  std::int64_t totalAccesses = 0;
  double wallSeconds = 0.0;         ///< host wall time of the replay
  dsm::PlanCounts counts;           ///< per (phase, array, processor) tallies + comm events

  [[nodiscard]] double accessesPerSecond() const {
    return wallSeconds > 0.0 ? static_cast<double>(totalAccesses) / wallSeconds : 0.0;
  }
};

/// Replays `program` under `plan` on opts.processors simulated PEs. The plan
/// must cover every phase (same contract as dsm::simulate). Throws
/// AnalysisError/ProgramError on unanalyzable inputs, and CancelledError or
/// DeadlineError when the current budget is cancelled or past its deadline
/// (polled every 4096 accesses and elements).
[[nodiscard]] TraceResult simulateTrace(const ir::Program& program, const ir::Bindings& params,
                                        const dsm::ExecutionPlan& plan, const SimOptions& opts);

}  // namespace ad::sim
