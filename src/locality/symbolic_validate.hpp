// Closed-form (symbolic) trace validation.
//
// The enumerating simulator (sim/trace_sim) classifies every concrete access
// of every phase against the plan's distributions — exact, but O(accesses),
// which caps it well below the paper's problem scales. This module computes
// the *same* observed trace in closed form with the counting core the DSM
// cost model also uses (dsm/access_count): each reference's access region is
// collapsed into arithmetic progressions and intersected with the
// processor-locality interval sets, so the per-(phase, array) local/remote
// counts and the redistribution word/message counts cost O(descriptor
// regions), independent of the iteration counts being validated. This
// module adds the validator's policy: it reports a region that fell back to
// enumeration as a degradation. Like the cost model, it never charges the
// request's prover budget; cancellation and the deadline still stop it.
//
// Both oracles build their dsm::ObservedTrace with dsm::observedTrace, and
// the two must be *identical* — field for field, ordering included — on the
// same inputs; `--validate=both` and the differential tests enforce exactly
// that.
//
// Degradation ladder: a region the algebra cannot collapse (non-affine
// residue after numeric expansion or a cap: cause "unknown-region") or an
// injected "symval.region" fault (cause "fault", checked by dsm::countPlan)
// falls back to the enumerating oracle for that (phase, array) only — the
// counts stay exact, the run is marked degraded via
// support::recordDegradation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "dsm/access_count.hpp"
#include "dsm/validate.hpp"
#include "ir/walker.hpp"

namespace ad::loc {

struct SymvalOptions {
  std::int64_t processors = 8;
};

/// Result of one closed-form validation run; `observed` has the exact shape
/// sim::TraceResult::observed has.
struct SymbolicCounts {
  dsm::ObservedTrace observed;
  std::int64_t processors = 0;
  std::int64_t totalAccesses = 0;
  double wallSeconds = 0.0;  ///< host time, counting pass included
  std::int64_t closedFormRegions = 0;  ///< (phase, ref) regions counted algebraically
  std::int64_t enumeratedRegions = 0;  ///< regions that fell back to enumeration
};

/// Computes the plan's observed trace in closed form: symbolicTrace() on
/// dsm::countPlan's counts at opts.processors. Throws
/// AnalysisError/ProgramError on unanalyzable inputs (same contract as
/// sim::simulateTrace).
[[nodiscard]] SymbolicCounts symbolicTrace(const ir::Program& program,
                                           const ir::Bindings& params,
                                           const dsm::ExecutionPlan& plan,
                                           const SymvalOptions& opts = {});

/// symbolicTrace() from counts dsm::countPlan already took at `processors`,
/// so the cost model shares the pass. Records the degradations of the
/// regions that fell back here, not at counting time.
[[nodiscard]] SymbolicCounts symbolicTrace(const ir::Program& program,
                                           const dsm::PlanCounts& counts,
                                           std::int64_t processors);

/// Differential comparison: first difference between the symbolic and the
/// enumerated trace (counts, redistribution events, ordering); nullopt when
/// byte-identical.
[[nodiscard]] std::optional<std::string> describeTraceDifference(
    const dsm::ObservedTrace& symbolic, const dsm::ObservedTrace& trace);

}  // namespace ad::loc
