// Theorem-1/2 validation against an observed access trace.
//
// dsm::validateLocality compares the communication an oracle observed (the
// trace replay or the closed-form count) against the LCG's edge labels,
// turning the compile-time predictions into falsifiable claims. Whether a
// plan is also value-correct (every locally served read fresh) is checked by
// the tests' reference::validateDataFlow (tests/reference_oracles.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dsm/machine.hpp"
#include "lcg/lcg.hpp"

namespace ad::dsm {

/// Local/remote tallies of one array in one phase.
struct ArrayCounts {
  std::int64_t local = 0;
  std::int64_t remote = 0;
  std::int64_t remoteBytes = 0;  ///< bytes fetched by remote accesses
};

struct PhaseCounts {
  std::string phase;
  std::map<std::string, ArrayCounts> arrays;

  [[nodiscard]] std::int64_t local() const;
  [[nodiscard]] std::int64_t remote() const;
};

/// Everything an oracle observed (dsm::observedTrace builds it for both):
/// per-phase/per-array counts plus the communication events (global
/// redistributions and frontier refreshes). RedistributionStats::time is
/// left 0 here — the oracles count events; model cycles are dsm::simulate's
/// job.
struct ObservedTrace {
  std::vector<PhaseCounts> phases;  ///< one per program phase
  std::vector<RedistributionStats> redistributions;

  /// Whole-run totals over every phase and array.
  [[nodiscard]] ArrayCounts totals() const;
  /// Words moved by frontier refreshes (`frontier`) or global redistributions.
  [[nodiscard]] std::int64_t wordsMoved(bool frontier) const;
  [[nodiscard]] double localFraction() const;
  /// One line per phase with each array's counts, then one per event.
  [[nodiscard]] std::string str() const;
};

/// One non-uncoupled LCG edge checked against the trace.
struct EdgeObservation {
  std::string array;
  std::size_t fromPhase = 0;
  std::size_t toPhase = 0;
  loc::EdgeLabel label = loc::EdgeLabel::kComm;
  bool backEdge = false;
  std::int64_t remoteAccesses = 0;      ///< by the drain phase, on this array
  std::int64_t redistributedWords = 0;  ///< global moves entering (from, to]
  /// Words moved entering/leaving a folded ("reverse") placement: Theorem 1's
  /// storage-symmetry transformation, accounted separately from Theorem 2's
  /// inter-phase communication (like frontier refreshes of halo replicas).
  std::int64_t storageWords = 0;
  bool replication = false;  ///< drain served by replicated/private placement
  bool agrees = true;
  std::string detail;
};

struct LocalityValidationReport {
  std::vector<EdgeObservation> edges;
  std::int64_t checked = 0;
  std::int64_t disagreements = 0;

  [[nodiscard]] bool ok() const noexcept { return disagreements == 0; }
  [[nodiscard]] std::string str() const;
};

/// Compares the observed communication against the Theorem-1/2 edge labels:
///  - an L edge promises the drain phase runs communication-free — any global
///    redistribution of the array between the phases, or any remote access by
///    the drain phase, is a disagreement. Two storage mechanisms of Theorem 1
///    are exempt, mirroring the paper's accounting: frontier refreshes of
///    replicated overlap regions (Theorem 1c), and moves entering/leaving a
///    folded placement (the reverse-distribution storage of Section 4.2) —
///    both are reported as storage events, not inter-phase communication;
///  - a C edge demands communication — satisfied by redistributed words or
///    remote accesses; two discharges agree with a note: a write-only drain
///    (dead values are re-allocated, not copied — the paper's data allocation
///    procedure) and a replicated/privatized drain placement (owner-free,
///    beyond Theorem 2's block-cyclic scope). H = 1 is vacuous.
/// D (uncoupled) edges are skipped: privatization removes the coupling.
/// Back edges of cyclic programs are checked against the wraparound
/// redistribution the plan would execute re-entering the first phase.
[[nodiscard]] LocalityValidationReport validateLocality(const lcg::LCG& lcg,
                                                        const ExecutionPlan& plan,
                                                        const ObservedTrace& trace,
                                                        const ir::Bindings& params,
                                                        std::int64_t processors);

}  // namespace ad::dsm
