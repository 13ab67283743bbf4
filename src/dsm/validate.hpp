// Data-flow validation of execution plans.
//
// The simulator counts *where* accesses land; this validator checks the plan
// is also *correct*: every read served from a processor's local memory
// (owned block, replicated halo, or replicated array) must observe the value
// a sequential execution would — i.e. the local copy must be fresh.
//
// Mechanics: every array element carries a version, bumped on each write in
// sequential program order. Owners are updated in place (a write by the
// executing processor reaches the owner's copy directly or as a put); halo
// and replica copies go stale on writes and are refreshed only by the plan's
// frontier exchanges and redistributions — if a phase reads a halo element
// the plan failed to refresh, that is a stale read.
//
// Reads that the plan serves remotely are always fresh (a DSM get observes
// the owner's memory) — they cost time, not correctness.
// It also hosts the Theorem-1/2 cross-check: dsm::validateLocality compares
// the communication a trace simulation actually observed against the LCG's
// edge labels, turning the compile-time predictions into falsifiable claims.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dsm/machine.hpp"
#include "lcg/lcg.hpp"

namespace ad::dsm {

struct DataFlowReport {
  std::int64_t readsChecked = 0;
  std::int64_t staleReads = 0;
  std::vector<std::string> diagnostics;  ///< first few offending reads

  [[nodiscard]] bool ok() const noexcept { return staleReads == 0; }
};

/// Replays the program under `plan` with version tracking.
[[nodiscard]] DataFlowReport validateDataFlow(const ir::Program& program,
                                              const ir::Bindings& params,
                                              const ExecutionPlan& plan,
                                              std::int64_t processors);

// ---------------------------------------------------------------------------
// Theorem 1/2 validation against a measured access trace.
// ---------------------------------------------------------------------------

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
