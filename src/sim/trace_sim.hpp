// DSM access-trace replay: the enumerating validation oracle.
//
// dsm::simulate() charges model cycles from closed-form access counts; this
// module instead replays every access and tallies what the paper's Theorems
// 1 and 2 predict: per-phase, per-array local vs. remote access counts and
// remote bytes moved, and the words and messages of every redistribution.
//
// The replay is serial. Each phase's access stream is walked once
// (ir::forEachAccess, which steps linear subscripts instead of evaluating
// them); every access is charged to the processor that executes its parallel
// iteration under the plan's CYCLIC(p_k) schedule and classified against the
// plan's BLOCK-CYCLIC(b) owner maps. Redistributions entering a phase are
// counted element by element against those owner maps, so this oracle stays
// independent of the owner-run counting core that the closed-form validator
// (loc::symbolicTrace) shares with the cost model.
//
// The result feeds dsm::validateLocality(), which compares the observed
// communication against the LCG's Theorem-1/2 edge labels.
#pragma once

#include <cstdint>
#include <string>

#include "dsm/validate.hpp"

namespace ad::sim {

struct SimOptions {
  std::int64_t processors = 8;  ///< simulated PEs
};

struct TraceResult {
  dsm::ObservedTrace observed;      ///< per-phase/per-array counts + comm events
  std::int64_t processors = 1;      ///< simulated PEs
  std::int64_t totalAccesses = 0;
  double wallSeconds = 0.0;         ///< host wall time of the replay

  [[nodiscard]] double accessesPerSecond() const {
    return wallSeconds > 0.0 ? static_cast<double>(totalAccesses) / wallSeconds : 0.0;
  }
  [[nodiscard]] double localFraction() const;
  [[nodiscard]] std::string str() const;
};

/// Replays `program` under `plan` on opts.processors simulated PEs. The plan
/// must cover every phase (same contract as dsm::simulate). Throws
/// AnalysisError/ProgramError on unanalyzable inputs, and CancelledError or
/// DeadlineError when the current budget is cancelled or past its deadline
/// (polled every 4096 accesses and elements).
[[nodiscard]] TraceResult simulateTrace(const ir::Program& program, const ir::Bindings& params,
                                        const dsm::ExecutionPlan& plan, const SimOptions& opts);

}  // namespace ad::sim
