// DSM machine model.
//
// A deterministic cost model of a distributed-shared-memory multiprocessor in
// the style of the paper's Cray T3D testbed: H processors, each owning a
// slice of every shared array under a BLOCK-CYCLIC(b) distribution, with
// single-sided put communication. Iterations of each parallel loop are
// scheduled CYCLIC(p) (the paper's Section 4 assumption ii).
//
// The model is closed form: the counting core (dsm/access_count) derives
// every phase's per-processor local/remote access counts from the loop
// nests' arithmetic progressions, without visiting the accesses, and
// simulate() charges those counts with MachineParams. Data redistributions
// between phases (the C edges of the LCG) are executed as aggregated puts,
// counted by one owner-run walk over a single pattern period. The cost is
// independent of the problem size; tests/reference_oracles holds the
// access-by-access replay the tests compare it against.
//
// Cost parameters default to published T3D ratios (remote:local latency on
// the order of 10^2, put startup on the order of 10^3 cycles); the paper's
// claim that we reproduce — >70% parallel efficiency at H = 64 with
// LCG-derived distributions — is about the *ratio* of local to remote
// traffic, which the counts give exactly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ir/walker.hpp"
#include "support/budget.hpp"
#include "support/checked_int.hpp"
#include "support/diagnostics.hpp"

namespace ad::dsm {

/// Bytes per array element: what every remote-byte tally charges per remote
/// access or moved element.
inline constexpr std::int64_t kWordBytes = 8;

/// The machine's cost ratios: the one set the ILP objective (as
/// ilp::CostParams), the plan's halo decision and the cost model all price
/// with. transferTime() is the one price of a transfer: nothing else reads
/// putLatency or perWord.
struct MachineParams {
  std::int64_t processors = 8;
  double localAccess = 1.0;     ///< cycles per local array access
  double remoteAccess = 100.0;  ///< EXTRA cycles when the access is remote
  double putLatency = 200.0;    ///< startup cycles per aggregated put message
  double perWord = 4.0;         ///< cycles per word in an aggregated transfer

  /// Time of aggregated puts moving `words` in `messages`. The puts proceed
  /// in parallel across processors: the critical path carries ~1/H of them.
  [[nodiscard]] double transferTime(std::int64_t messages, std::int64_t words) const {
    return (static_cast<double>(messages) * putLatency + static_cast<double>(words) * perWord) /
           static_cast<double>(processors);
  }
};

/// Placement of one array's elements across the processors.
///
/// kFoldedBlockCyclic is the paper's "reverse distribution" case: mirror
/// pairs (a, fold - a) — and their fold-periodic images — are co-located,
/// which makes conjugate-symmetry phases (TFFT2's DO_110) fully local.
struct DataDistribution {
  enum class Kind { kBlockCyclic, kFoldedBlockCyclic, kReplicated };
  Kind kind = Kind::kBlockCyclic;
  std::int64_t block = 1;  ///< BLOCK-CYCLIC block size, in elements
  std::int64_t fold = 0;   ///< mirror period/center (kFoldedBlockCyclic only)

  [[nodiscard]] static DataDistribution blockCyclic(std::int64_t block);
  /// Plain BLOCK: one contiguous slice per processor.
  [[nodiscard]] static DataDistribution blocked(std::int64_t arraySize, std::int64_t processors);
  [[nodiscard]] static DataDistribution foldedBlockCyclic(std::int64_t block, std::int64_t fold);
  [[nodiscard]] static DataDistribution replicated();

  /// One monotone piece of a fold: the addresses [start, end] of one mirror
  /// period q on which a folded kind classifies address a by its reflection
  /// sign * a + offset, which is a - q * fold on [q * fold, q * fold + fold/2]
  /// and (q + 1) * fold - a on the rest of the period. The one statement of
  /// where a fold reflects: owner(), isLocal(), ownerRunEnd() and the
  /// counting core's mirror segments all read it.
  struct FoldPiece {
    std::int64_t start = 0;
    std::int64_t end = 0;  ///< inclusive
    std::int64_t sign = 1;
    std::int64_t offset = 0;

    [[nodiscard]] std::int64_t reflect(std::int64_t addr) const {
      return sign > 0 ? addr + offset : offset - addr;
    }
  };
  /// The piece of the fold holding `addr` (kFoldedBlockCyclic only).
  [[nodiscard]] FoldPiece foldPiece(std::int64_t addr) const;

  /// True when the distribution assigns each element to one owner.
  [[nodiscard]] bool hasOwner() const noexcept {
    return kind == Kind::kBlockCyclic || kind == Kind::kFoldedBlockCyclic;
  }
  /// Owning processor of an element (owner-bearing kinds only).
  [[nodiscard]] std::int64_t owner(std::int64_t addr, std::int64_t processors) const;
  /// Is `addr` in `pe`'s local memory? Replicated arrays always are.
  /// `halo` widens each owned block by replicated overlap regions on both
  /// sides (Theorem 1c's replicated sub-regions, refreshed by frontier
  /// communications).
  [[nodiscard]] bool isLocal(std::int64_t addr, std::int64_t pe, std::int64_t processors,
                             std::int64_t halo = 0) const;
  /// End (exclusive) of the constant-owner run containing `addr`: one block,
  /// or for folded kinds one block of the reflected address (owner-bearing
  /// kinds only).
  [[nodiscard]] std::int64_t ownerRunEnd(std::int64_t addr) const;
  /// Length of the owner pattern's period: block * processors, or the fold.
  [[nodiscard]] std::int64_t ownerPeriod(std::int64_t processors) const;

  [[nodiscard]] bool operator==(const DataDistribution& o) const {
    if (kind != o.kind) return false;
    if (kind == Kind::kBlockCyclic) return block == o.block;
    if (kind == Kind::kFoldedBlockCyclic) return block == o.block && fold == o.fold;
    return true;
  }
};

// Inline, so that a step computing both owner() and ownerRunEnd() of one
// address finds the fold's piece once.

inline DataDistribution::FoldPiece DataDistribution::foldPiece(std::int64_t addr) const {
  AD_REQUIRE(kind == Kind::kFoldedBlockCyclic, "foldPiece() requires a folded distribution");
  const std::int64_t m = euclidMod(addr, fold);
  const std::int64_t base = checkedSub(addr, m);
  const std::int64_t half = fold / 2;
  if (m <= half) return {base, base + half, 1, -base};
  const std::int64_t next = checkedAdd(base, fold);
  return {base + half + 1, next - 1, -1, next};
}

inline std::int64_t DataDistribution::owner(std::int64_t addr, std::int64_t processors) const {
  AD_REQUIRE(hasOwner(), "owner() requires an owner-bearing distribution");
  AD_REQUIRE(addr >= 0, "negative address");
  const std::int64_t a = kind == Kind::kFoldedBlockCyclic ? foldPiece(addr).reflect(addr) : addr;
  return (a / block) % processors;
}

inline std::int64_t DataDistribution::ownerRunEnd(std::int64_t addr) const {
  AD_REQUIRE(hasOwner(), "ownerRunEnd() requires an owner-bearing distribution");
  AD_REQUIRE(addr >= 0, "negative address");
  if (kind != Kind::kFoldedBlockCyclic) return (addr / block + 1) * block;
  // The owner is constant while the reflection stays inside its block c,
  // and at most to the end of the piece.
  const FoldPiece piece = foldPiece(addr);
  const std::int64_t c = piece.reflect(addr) / block;
  const std::int64_t last =
      piece.sign > 0 ? (c + 1) * block - 1 - piece.offset : piece.offset - c * block;
  return std::min(piece.end, last) + 1;
}

/// Steps one distribution's constant-owner runs in address order: `owner` owns
/// every address from the current run's start up to `runEnd`. A BLOCK-CYCLIC
/// step adds one block and moves to the next processor, without a division;
/// folded kinds step through owner() / ownerRunEnd(). Construction checks
/// their requirements (an owner-bearing distribution, begin >= 0), which a
/// BLOCK-CYCLIC step never rechecks.
struct OwnerCursor {
  OwnerCursor(const DataDistribution& dist, std::int64_t processors, std::int64_t begin)
      : dist(dist), processors(processors), runEnd(dist.ownerRunEnd(begin)),
        owner(dist.owner(begin, processors)) {}

  /// Moves to the run starting at `runEnd`.
  void advance() {
    if (dist.kind == DataDistribution::Kind::kBlockCyclic) {
      runEnd += dist.block;
      owner = owner + 1 == processors ? 0 : owner + 1;
    } else {
      owner = dist.owner(runEnd, processors);
      runEnd = dist.ownerRunEnd(runEnd);
    }
  }

  const DataDistribution& dist;
  std::int64_t processors;
  std::int64_t runEnd;
  std::int64_t owner;
};

/// The owner-run walker: visits [begin, end) in maximal runs on which both
/// `from` and `to` keep one owner, as fn(runBegin, runEnd, fromOwner,
/// toOwner), in address order. Redistribution counting, schedule generation
/// and schedule verification all walk owners through it, so each costs
/// O(runs) rather than O(elements): a few ns per run when both endpoints are
/// BLOCK-CYCLIC, two out-of-line calls per folded step otherwise. Polls
/// cancellation and the deadline.
template <typename Fn>
void forEachOwnerRun(const DataDistribution& from, const DataDistribution& to,
                     std::int64_t processors, std::int64_t begin, std::int64_t end, Fn&& fn) {
  OwnerCursor f(from, processors, begin);
  OwnerCursor t(to, processors, begin);
  support::ExpiryPoll poll;
  for (std::int64_t a = begin; a < end;) {
    poll.tick();
    const std::int64_t next = std::min({f.runEnd, t.runEnd, end});
    fn(a, next, f.owner, t.owner);
    a = next;
    if (f.runEnd == a) f.advance();
    if (t.runEnd == a) t.advance();
  }
}

/// CYCLIC(chunk) scheduling of a parallel loop: the one statement of which
/// processor runs an iteration, for the ILP's imbalance cost, the counting
/// core and the trace replay.
struct IterationDistribution {
  std::int64_t chunk = 1;

  /// The processor that executes iteration `iter` (>= 0).
  [[nodiscard]] std::int64_t executor(std::int64_t iter, std::int64_t processors) const {
    AD_REQUIRE(chunk >= 1, "chunk must be positive");
    AD_REQUIRE(iter >= 0, "negative iteration");
    return (iter / chunk) % processors;
  }
  /// Iterations of [lo, lo + trip) assigned to processor `pe` (lo >= 0).
  /// Processor 0 is the busiest over a range starting at 0.
  [[nodiscard]] std::int64_t iterationsOn(std::int64_t processors, std::int64_t pe,
                                          std::int64_t lo, std::int64_t trip) const;
};

/// Cuts `run` into pieces of at most `maxPiece` iterations that one processor
/// executes under `sched` (the DOALL encloses the run, or the piece stays in
/// one CYCLIC(chunk) block of it), as fn(t, n, pe) for iterations [t, t + n)
/// of the run. A phase without a DOALL runs on processor 0.
template <typename Fn>
void forEachProcessorPiece(const ir::AccessRun& run, const IterationDistribution& sched,
                           std::int64_t processors, std::int64_t maxPiece, Fn&& fn) {
  for (std::int64_t t = 0, n = 0; t < run.count; t += n) {
    const std::int64_t iter = run.parallelIterAt(t);
    const std::int64_t pe = sched.executor(iter, processors);
    n = std::min(run.count - t, maxPiece);
    if (run.parallelIsInner) n = std::min(n, sched.chunk - iter % sched.chunk);
    fn(t, n, pe);
  }
}

struct PhaseStats {
  std::string phase;
  std::int64_t localAccesses = 0;
  std::int64_t remoteAccesses = 0;
  std::vector<double> peTime;  ///< per-processor busy time
  double time = 0.0;           ///< max over processors
  double seqTime = 0.0;        ///< all accesses at local cost (1 processor)
};

struct RedistributionStats {
  std::string array;
  std::size_t beforePhase = 0;  ///< communication happens before this phase
  std::int64_t wordsMoved = 0;
  std::int64_t messages = 0;  ///< after aggregation: distinct (src, dst) pairs
  double time = 0.0;
  bool frontier = false;  ///< frontier (halo refresh) rather than global
};

struct SimulationResult {
  std::vector<PhaseStats> phases;
  std::vector<RedistributionStats> redistributions;

  [[nodiscard]] double parallelTime() const;
  [[nodiscard]] double sequentialTime() const;
  [[nodiscard]] double speedup() const { return sequentialTime() / parallelTime(); }
  [[nodiscard]] double efficiency(std::int64_t processors) const {
    return speedup() / static_cast<double>(processors);
  }
  [[nodiscard]] std::int64_t totalRemoteAccesses() const;

  [[nodiscard]] std::string str() const;
};

/// A full execution plan: one iteration distribution per phase, and for each
/// array the data distribution in effect during each phase (a change between
/// consecutive phases is executed as a redistribution).
struct ExecutionPlan {
  std::vector<IterationDistribution> iteration;                       // per phase
  std::map<std::string, std::vector<DataDistribution>> data;          // array -> per phase
  /// Replicated halo width per array per phase (0 = none). Reads within the
  /// halo of a processor's blocks are local; a frontier refresh is charged
  /// before each halo-reading phase whose array is written elsewhere.
  std::map<std::string, std::vector<std::int64_t>> halo;

  /// BLOCK everything: the baseline the paper's approach is compared to.
  [[nodiscard]] static ExecutionPlan naiveBlock(const ir::Program& program,
                                                const ir::Bindings& params,
                                                std::int64_t processors);
};

/// True if changing `array`'s distribution entering phase `k` must move
/// data: false when the next phase that touches the array only writes it
/// (dead values need allocation, not copying — the paper's data allocation
/// procedure). Assumes write-only phases produce the region they cover;
/// the tests' reference::validateDataFlow checks that assumption.
[[nodiscard]] bool redistributionMovesData(const ir::Program& program, const std::string& array,
                                           std::size_t phase);

// The communication entering a phase (Section 4.3b), decided once for the
// comm stage, the counting core, the trace oracle and the data-flow check.

/// True if `plan` redistributes `array` entering phase `k`: its distribution
/// changes there between two owner-bearing ones (entering or leaving a
/// replica moves no shared data), and the data must move.
[[nodiscard]] bool redistributes(const ir::Program& program, const ExecutionPlan& plan,
                                 const std::string& array, std::size_t k);

/// Traffic of refreshing a `halo`-wide overlap of `size` elements in blocks
/// of `block`: at each of the ceil(size / block) - 1 block boundaries the
/// owners push `halo` words in each direction, one message per direction.
[[nodiscard]] RedistributionStats refreshTraffic(std::int64_t size, std::int64_t block,
                                                 std::int64_t halo);

/// The frontier refresh of `array` entering phase `k`, if the plan runs one:
/// the phase reads the array through a replicated halo of an owner-bearing
/// distribution, another phase writes it, and the refresh moves words.
[[nodiscard]] std::optional<RedistributionStats> frontierRefresh(const ir::Program& program,
                                                                 const ir::Bindings& params,
                                                                 const ExecutionPlan& plan,
                                                                 const std::string& array,
                                                                 std::size_t k);

/// Evaluates the program's cost under `plan`, in closed form. Arrays marked
/// privatizable in a phase are local there regardless of the plan (each
/// processor works on its own copy). Per phase, global redistributions come
/// first, then frontier refreshes (H >= 2 only). Never charges the request's
/// budget; a region the counting core cannot collapse is enumerated, which
/// polls cancellation and the deadline. The same as simulate() on
/// dsm::countPlan's counts at machine.processors.
[[nodiscard]] SimulationResult simulate(const ir::Program& program, const ir::Bindings& params,
                                        const MachineParams& machine,
                                        const ExecutionPlan& plan);

struct PlanCounts;

/// simulate() from counts dsm::countPlan took at machine.processors, so one
/// counting pass serves the cost model and the validator alike.
[[nodiscard]] SimulationResult simulate(const ir::Program& program, const MachineParams& machine,
                                        const PlanCounts& counts);

}  // namespace ad::dsm
