// End-to-end pipeline: the full compiler flow of the paper.
//
//   program --(descriptors)--> LCG --(Table-2 model)--> ILP solution
//           --(plan derivation)--> iteration/data distributions
//           --(comm generation)--> put schedules for every redistribution
//           --(DSM simulation)--> measured locality and parallel efficiency,
//                                 against the naive BLOCK baseline.
//
// Plan derivation follows Section 4.3: every chain of L edges shares one
// static BLOCK-CYCLIC(slope * p_head) distribution; C edges become global
// redistributions; nodes with reverse storage symmetry get the folded
// ("reverse") distribution, entered through an explicit redistribution.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "comm/schedule.hpp"
#include "dsm/machine.hpp"
#include "dsm/validate.hpp"
#include "ilp/model.hpp"
#include "lcg/lcg.hpp"
#include "locality/symbolic_validate.hpp"
#include "sim/trace_sim.hpp"
#include "support/budget.hpp"

namespace ad::support {
class ThreadPool;
}  // namespace ad::support

namespace ad::driver {

/// Which trace-validation oracle(s) to run after planning (docs/VALIDATION.md):
///  - kTrace:    enumerate every access (sim::simulateTrace, a serial replay);
///  - kSymbolic: closed-form interval-intersection counts (O(descriptors));
///  - kBoth:     run both and compare them field for field (differential
///               mode; any difference is reported as a validation failure).
enum class ValidateMode { kNone, kTrace, kSymbolic, kBoth };

/// The mode named `name`: none, trace, symbolic or both (the CLI's
/// --validate= and the service's "validate" field); nullopt for any other.
[[nodiscard]] std::optional<ValidateMode> parseValidateMode(std::string_view name);

struct PipelineConfig {
  ir::Bindings params;            ///< numeric values for the program parameters
  std::int64_t processors = 8;

  /// Replay the derived plan on the DSM cost model. Disable for analysis-only
  /// runs (the batched engine and the scaling bench), which need the LCG /
  /// ILP / plan but not the measured efficiencies.
  bool simulatePlan = true;

  /// Also simulate the naive BLOCK/BLOCK baseline for comparison.
  bool simulateBaseline = true;

  /// Trace-validation oracle selection (`--validate=trace|symbolic|both`;
  /// the CLI's `--simulate` means kTrace): the chosen oracle(s) observe the
  /// plan's communication, which is cross-checked against the LCG's
  /// Theorem-1/2 edge labels.
  ValidateMode validate = ValidateMode::kNone;

  /// Worker threads for the batched engine (analyzeBatch). Within a single
  /// analyzeAndSimulate call this many workers also pick up the per-array
  /// analysis tasks when a pool is supplied.
  std::size_t jobs = 1;

  /// Analysis budget for this run (prover steps / recursion depth / wall
  /// clock; zero fields are unlimited). Exhaustion never fails the pipeline:
  /// provers answer Unknown and every consumer takes its conservative choice,
  /// recorded in PipelineResult::degradation.
  support::BudgetLimits budget;
  /// Optional cooperative cancellation, polled together with the deadline.
  support::CancelToken cancel;
};

/// Everything the pipeline produces. Valid only while the analyzed Program
/// is alive (the LCG references it).
struct PipelineResult {
  lcg::LCG lcg;
  ilp::Model model;
  ilp::Solution solution;
  dsm::ExecutionPlan plan;
  std::vector<comm::CommSchedule> schedules;  ///< one per redistribution point
  dsm::SimulationResult planned;              ///< under the derived plan
  dsm::SimulationResult naive;                ///< under the BLOCK baseline
  std::int64_t processors = 1;

  /// Present when trace validation ran (kTrace / kBoth).
  std::optional<sim::TraceResult> trace;                      ///< access replay
  /// Present when symbolic validation ran (kSymbolic / kBoth).
  std::optional<loc::SymbolicCounts> symbolic;                ///< closed-form counts
  /// Theorem-1/2 check against whichever observed trace ran (the enumerated
  /// one when both did — it is the oracle of the differential pair).
  std::optional<dsm::LocalityValidationReport> localityCheck; ///< vs Theorem 1/2
  /// First difference between the two oracles in kBoth mode; empty when they
  /// agree (symbolicAgrees() is the convenient predicate).
  std::string symbolicDifference;

  [[nodiscard]] bool symbolicAgrees() const noexcept { return symbolicDifference.empty(); }

  /// Conservative downgrades taken during this run (budget exhaustion or
  /// injected faults). Empty on a clean run — the result is then exactly the
  /// unbudgeted answer.
  std::vector<support::DegradationEvent> degradation;

  [[nodiscard]] bool degraded() const noexcept { return !degradation.empty(); }

  [[nodiscard]] double plannedEfficiency() const { return planned.efficiency(processors); }
  [[nodiscard]] double naiveEfficiency() const { return naive.efficiency(processors); }

  /// Human-readable end-to-end report.
  [[nodiscard]] std::string report(const ir::Program& program) const;
};

/// Derives the execution plan from a solved model (exposed for tests).
[[nodiscard]] dsm::ExecutionPlan derivePlan(const ir::Program& program, const lcg::LCG& lcg,
                                            const ilp::Model& model,
                                            const ilp::Solution& solution,
                                            const ir::Bindings& params,
                                            std::int64_t processors,
                                            const dsm::MachineParams& machine = {});

/// Runs the whole flow. Throws AnalysisError/ProgramError on unanalyzable
/// inputs; an infeasible ILP falls back to per-phase greedy chunks. When a
/// pool is supplied, per-array descriptor simplification and edge
/// classification run as concurrent tasks on it (the output is byte-identical
/// to the serial run).
[[nodiscard]] PipelineResult analyzeAndSimulate(const ir::Program& program,
                                                const PipelineConfig& config,
                                                support::ThreadPool* pool = nullptr);

/// Boundary variant: never throws. Any escaping exception — contract
/// violations included — is converted to a structured Status whose context
/// chain names the pipeline stage (and, for per-array work, the array) that
/// failed.
[[nodiscard]] Expected<PipelineResult> analyzeAndSimulateChecked(
    const ir::Program& program, const PipelineConfig& config,
    support::ThreadPool* pool = nullptr);

/// One entry of a batched-analysis request: a program plus its configuration.
/// The program must outlive the returned results (the LCG references it).
struct BatchItem {
  const ir::Program* program = nullptr;
  PipelineConfig config;
  std::string label;  ///< "code=<label>" context frame on failures
};

/// Batched engine: analyzes every item on a shared-queue pool with `jobs`
/// workers — one task per item, which itself fans out per-array subtasks onto
/// the same pool. An item that fails yields an Expected carrying the
/// structured Status (code -> stage -> array context chain) instead of
/// poisoning the batch; ad.driver.batch_errors counts them. Results are
/// returned in input order and are byte-identical to serial runs at any
/// `jobs`.
[[nodiscard]] std::vector<Expected<PipelineResult>> analyzeBatch(
    const std::vector<BatchItem>& batch, std::size_t jobs);

}  // namespace ad::driver
