// Closed-form access and communication counting under an execution plan.
//
// The one counting core behind the DSM cost model (dsm::simulate) and the
// closed-form trace validator (loc::symbolicTrace). Each reference's access
// region is collapsed into arithmetic progressions: a loop whose iterations
// shift the inner region uniformly (the stride ir::LoweredPhase gives for the
// (ref, loop)) folds by exact merge rules, any other is expanded, bounded.
// Each progression is intersected with the processor-locality interval sets
// of sym/interval_set — owner blocks, Theorem-1c replicated halos and
// folded-storage reflections included. Under BLOCK-CYCLIC(block) processor
// pe's set is pe 0's rotated by pe * block, so one set per (block, halo)
// serves all processors.
//
// A DOALL loop with a uniform shift is counted one ownership period at a
// time: iterations u and u + lambda agree when lambda is a multiple of
// chunk * H and shifts the addresses by a multiple of the period, so a range
// of iterations costs O(lambda / chunk) runs whatever its length. The period
// is block * H under BLOCK-CYCLIC. A folded distribution repeats only every
// fold addresses, but sigma is linear on each monotone piece of the fold, so
// there it repeats every block * H as well: the loop is cut into mirror
// segments (maximal ranges whose addresses all stay on one piece, and single
// iterations straddling a reflection point) and each segment is counted
// with the shorter period, unless whole fold periods take fewer runs or
// the loop needs more segments than a fixed cap allows. The
// per-(phase, array, processor) local/remote counts then depend on the
// descriptor regions and, for a folded array, on how many reflection points
// the loop's addresses cross, not on the trip counts. Redistribution words
// and messages come from one owner-run walk over a single lcm pattern
// period.
//
// A region the algebra cannot collapse (a non-affine residue past the
// numeric-expansion caps, or an overflow) is counted by walking the phase's
// runs (ir::forEachRun) for that array instead, each address classified with
// DataDistribution::isLocal, so the counts are always exact. The caller
// decides whether that fallback is a degradation worth recording; the
// validator (loc::symbolicTrace) records it.
// Counting never charges the request's prover budget: its loops poll only
// cancellation and the deadline.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dsm/validate.hpp"
#include "symbolic/interval_set.hpp"

namespace ad::dsm {

/// One array's accesses in one phase, split by executing processor.
struct ArrayTally {
  std::string array;
  ArrayCounts counts;
  std::vector<std::int64_t> peAccesses;  ///< accesses executed by each processor
  std::vector<std::int64_t> peRemote;    ///< remote accesses by each processor
  std::int64_t refs = 0;                 ///< references to the array in the phase
  std::string fallbackCause;             ///< non-empty: counted by enumeration
};

struct PhaseTally {
  std::vector<ArrayTally> arrays;   ///< in first-reference order
  std::int64_t closedFormRefs = 0;  ///< references counted algebraically

  /// References whose array fell back to enumeration.
  [[nodiscard]] std::int64_t enumeratedRefs() const;
};

/// The communication entering one phase, in array declaration order.
struct PhaseCommunication {
  std::vector<RedistributionStats> global;    ///< owner changes (words > 0 only)
  std::vector<RedistributionStats> frontier;  ///< halo refreshes (words > 0 only)
};

/// Where one reference of a phase is classified under a plan: the one
/// placement rule of the counting core and the trace replay.
struct RefPlacement {
  std::size_t slot = 0;                    ///< its array's slot in PhaseTally::arrays
  const DataDistribution* dist = nullptr;  ///< null: privatized (always local)
  std::int64_t halo = 0;                   ///< replicated halo width, reads only (Theorem 1c)
};

/// Places every reference of phase `k` under `plan`, in reference order, and
/// opens `tally`'s arrays in first-reference order: each with its reference
/// count and zeroed per-processor tallies for `processors`. A privatized
/// array has no distribution; a plan without the array is a contract
/// violation.
[[nodiscard]] std::vector<RefPlacement> placeRefs(const ir::Program& program,
                                                  const ExecutionPlan& plan, std::size_t k,
                                                  std::int64_t processors, PhaseTally& tally);

/// Every phase's counts under one plan, in phase order: the one counting
/// pass the cost model and the validator share, and the shape the trace
/// oracle (sim::simulateTrace) reports its replay in.
struct PlanCounts {
  std::vector<PhaseCommunication> communication;  ///< entering each phase
  std::vector<PhaseTally> tallies;                ///< each phase's accesses
  double wallSeconds = 0.0;                       ///< host time of the pass
};

/// The observed trace of a plan's counts, for validateLocality and the
/// differential: per phase, each array's totals; then every frontier refresh
/// in phase order, then every global redistribution in phase order.
[[nodiscard]] ObservedTrace observedTrace(const ir::Program& program, const PlanCounts& counts);

/// Processor `pe`'s locality set under a folded distribution (`dist` is
/// kFoldedBlockCyclic): exactly the addresses dist.isLocal(a, pe, processors,
/// halo) accepts, as a periodic set with period dist.fold. Each monotone
/// piece of the fold (DataDistribution::foldPiece) maps the BLOCK-CYCLIC set
/// back through its reflection. nullopt when the expansion would exceed
/// `maxIntervals` intervals (the caller degrades to enumeration).
[[nodiscard]] std::optional<sym::PeriodicIntervalSet> foldedLocalIntervals(
    const DataDistribution& dist, std::int64_t processors, std::int64_t pe, std::int64_t halo,
    std::size_t maxIntervals = 1 << 20);

/// Counts a program's accesses and communication under one plan on
/// `processors` processors: per phase, the global redistributions (k > 0) and
/// frontier refreshes entering it, then its accesses. The "symval.region"
/// fault point is checked once per reference; a firing sends the reference's
/// array to the fallback with cause "fault". Bumps ad.dsm.count_passes once,
/// and ad.dsm.count_runs by the runs of DOALL iterations it counted.
[[nodiscard]] PlanCounts countPlan(const ir::Program& program, const ir::Bindings& params,
                                   const ExecutionPlan& plan, std::int64_t processors);

/// Words and aggregated messages (distinct (src, dst) pairs) of redistributing
/// `size` elements from `from` to `to`: one owner-run walk over a single
/// lcm(period(from), period(to)) period, plus the remainder.
void countRedistribution(const DataDistribution& from, const DataDistribution& to,
                         std::int64_t size, std::int64_t processors, std::int64_t& words,
                         std::int64_t& messages);

}  // namespace ad::dsm
