#include "dsm/access_count.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <optional>
#include <tuple>
#include <utility>

#include "obs/obs.hpp"
#include "support/budget.hpp"
#include "support/checked_int.hpp"
#include "support/diagnostics.hpp"
#include "support/fault.hpp"
#include "symbolic/interval_set.hpp"

namespace ad::dsm {

std::optional<sym::PeriodicIntervalSet> foldedLocalIntervals(const DataDistribution& dist,
                                                             std::int64_t processors,
                                                             std::int64_t pe, std::int64_t halo,
                                                             std::size_t maxIntervals) {
  const sym::PeriodicIntervalSet canonical = sym::localIntervals(dist.block, processors, pe, halo);
  const std::int64_t M = canonical.period();
  const std::size_t expansions = static_cast<std::size_t>(ceilDiv(dist.fold, M)) *
                                 std::max<std::size_t>(1, canonical.intervals().size());
  if (expansions > maxIntervals) return std::nullopt;

  std::vector<std::pair<std::int64_t, std::int64_t>> pieces;  // raw (start, len)
  // Walk the monotone pieces of the first mirror period, [0, fold). Each
  // reflects onto canonical addresses [clo, chi]; every canonical interval
  // inside them maps back through the reflection.
  for (std::int64_t start = 0; start < dist.fold;) {
    const DataDistribution::FoldPiece piece = dist.foldPiece(start);
    start = piece.end + 1;
    const std::int64_t clo = std::min(piece.reflect(piece.start), piece.reflect(piece.end));
    const std::int64_t chi = std::max(piece.reflect(piece.start), piece.reflect(piece.end));
    for (std::int64_t window = 0; window <= chi; window += M) {
      for (const auto& [lo, hi] : canonical.intervals()) {
        const std::int64_t s = std::max(window + lo, clo);
        const std::int64_t e = std::min(window + hi, chi + 1);
        if (s >= e) continue;
        pieces.emplace_back(piece.sign > 0 ? s - piece.offset : piece.offset - (e - 1), e - s);
      }
    }
  }
  sym::PeriodicIntervalSet raw(dist.fold);
  raw.addWrapped(pieces);
  return raw;
}

namespace {

using sym::ArithmeticProgression;
using sym::PeriodicIntervalSet;
using ir::evalInt;

/// Numeric-expansion caps: a loop the merge rules cannot collapse is unrolled
/// only up to this trip count, and a region's progression list is bounded, so
/// adversarial nests fall back to enumeration instead of exploding.
constexpr std::int64_t kEnumLoopCap = 1 << 14;
constexpr std::size_t kApListCap = 1 << 13;
/// A folded DOALL loop is cut into at most this many mirror segments; one
/// that crosses more reflection points is counted by whole fold periods, so
/// choosing between the two costs a constant.
constexpr std::int64_t kMirrorSegmentCap = 64;

// ---------------------------------------------------------------------------
// Region collapse: loop-nest tail -> arithmetic progressions
// ---------------------------------------------------------------------------

struct ApList {
  std::vector<ArithmeticProgression> aps;

  [[nodiscard]] std::int64_t total() const {
    std::int64_t t = 0;
    for (const auto& ap : aps) t = checkedAdd(t, ap.total());
    return t;
  }
};

/// Folds one more loop around an already-collapsed inner region: every
/// iteration shifts the inner addresses by `step`. Exact merge rules only —
/// anything else replicates numerically (capped) or gives up.
std::optional<ApList> mergeLoop(const ApList& inner, std::int64_t step, std::int64_t n) {
  if (inner.aps.empty() || n == 1) return inner;
  if (step == 0) {
    ApList out = inner;
    for (auto& ap : out.aps) ap.repeat = checkedMul(ap.repeat, n);
    return out;
  }
  const std::int64_t astep = step < 0 ? -step : step;
  if (inner.aps.size() == 1) {
    const ArithmeticProgression& ap = inner.aps[0];
    // The lowest-address copy of the inner region across the n iterations.
    const std::int64_t loBase =
        step < 0 ? checkedAdd(ap.base, checkedMul(step, n - 1)) : ap.base;
    if (ap.count == 1) {
      return ApList{{ArithmeticProgression::make(loBase, astep, n, ap.repeat)}};
    }
    if (astep == checkedMul(ap.stride, ap.count)) {
      // Copies tile end to end: one longer progression.
      return ApList{{ArithmeticProgression::make(loBase, ap.stride,
                                                 checkedMul(ap.count, n), ap.repeat)}};
    }
    if (ap.stride == checkedMul(astep, n)) {
      // Copies interleave perfectly into a denser progression.
      return ApList{{ArithmeticProgression::make(loBase, astep,
                                                 checkedMul(ap.count, n), ap.repeat)}};
    }
  }
  if (n > kEnumLoopCap || inner.aps.size() * static_cast<std::size_t>(n) > kApListCap) {
    return std::nullopt;
  }
  ApList out;
  out.aps.reserve(inner.aps.size() * static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t shift = checkedMul(step, i);
    for (ArithmeticProgression ap : inner.aps) {
      ap.base = checkedAdd(ap.base, shift);
      out.aps.push_back(ap);
    }
  }
  return out;
}

/// Collapses loops[depth..] for ref `k` at `at` (the enclosing loops bound).
/// nullopt = Unknown; the caller falls back. `poll` ticks once per collapse
/// step and per expanded iteration.
std::optional<ApList> collapseTail(const ir::LoweredPhase& phase, std::size_t k,
                                   std::size_t depth, ir::NestPoint& at,
                                   support::ExpiryPoll& poll) {
  poll.tick();
  if (depth == phase.phase().loops().size()) {
    return ApList{{ArithmeticProgression::make(phase.address(k, at), 0, 1, 1)}};
  }
  const auto [lo, n] = phase.range(depth, at);
  if (n == 0) return ApList{};

  // Merge path: every iteration is a pure shift of the inner region.
  if (const auto stride = phase.stride(k, depth, at)) {
    phase.bind(at, depth, lo);
    auto inner = collapseTail(phase, k, depth + 1, at, poll);
    if (!inner) return std::nullopt;
    return mergeLoop(*inner, *stride, n);
  }

  // Numeric expansion (bounded): bounds or coefficients genuinely depend on
  // this index (triangular nests, pow2 strides under an exponent loop).
  if (n > kEnumLoopCap) return std::nullopt;
  ApList out;
  for (std::int64_t t = 0; t < n; ++t) {
    poll.tick();
    phase.bind(at, depth, lo + t);
    auto inner = collapseTail(phase, k, depth + 1, at, poll);
    if (!inner || out.aps.size() + inner->aps.size() > kApListCap) return std::nullopt;
    out.aps.insert(out.aps.end(), inner->aps.begin(), inner->aps.end());
  }
  return out;
}

/// Where one processor's accesses are classified: address a is local when
/// sign * a + offset lies in `set`.
struct View {
  const PeriodicIntervalSet* set = nullptr;  ///< null: the folded expansion was refused
  std::int64_t sign = 1;
  std::int64_t offset = 0;
};

/// Accesses of `aps`, shifted by shift * t for each t in [u, u + len), that
/// `view` classifies local. Along t each inner address is itself a
/// progression, so this costs one count per inner address or one per t,
/// whichever is fewer.
std::int64_t countRunIn(const ApList& aps, const View& view, std::int64_t shift, std::int64_t u,
                        std::int64_t len) {
  const auto count = [&view](std::int64_t base, std::int64_t stride, std::int64_t n,
                             std::int64_t repeat) {
    const std::int64_t b =
        view.sign < 0 ? checkedSub(view.offset, base) : checkedAdd(base, view.offset);
    return view.set->countAP(
        ArithmeticProgression::make(b, checkedMul(view.sign, stride), n, repeat));
  };
  std::int64_t local = 0;
  for (const ArithmeticProgression& ap : aps.aps) {
    const std::int64_t base = checkedAdd(ap.base, checkedMul(shift, u));
    const bool perAddress = ap.count <= len;
    for (std::int64_t i = 0; i < (perAddress ? ap.count : len); ++i) {
      local = checkedAdd(
          local, perAddress
                     ? count(checkedAdd(base, checkedMul(ap.stride, i)), shift, len, ap.repeat)
                     : count(checkedAdd(base, checkedMul(shift, i)), ap.stride, ap.count,
                             ap.repeat));
    }
  }
  return local;
}

/// The locality sets of one (distribution, halo). Under BLOCK-CYCLIC(block)
/// processor pe's set is pe 0's shifted by pe * block, so one set serves
/// every processor. A folded distribution reads that set through sigma on
/// each monotone piece of the fold, and keeps each processor's fold-period
/// set as well, built the first time a reference executed there needs it.
class LocalSets {
 public:
  LocalSets(const DataDistribution& dist, std::int64_t processors, std::int64_t halo)
      : dist_(dist),
        processors_(processors),
        halo_(halo),
        canonical_(sym::localIntervals(dist.block, processors, 0, halo)),
        folded_(dist.kind == DataDistribution::Kind::kBlockCyclic
                    ? 0
                    : static_cast<std::size_t>(processors)),
        built_(folded_.size(), 0) {}

  /// Processor `pe`'s set over every address; its set is null where the
  /// folded expansion was refused (a reference executed there falls back to
  /// enumeration).
  View of(std::int64_t pe) {
    if (dist_.kind == DataDistribution::Kind::kBlockCyclic) {
      return {&canonical_, 1, -pe * dist_.block};
    }
    const auto p = static_cast<std::size_t>(pe);
    if (built_[p] == 0) {
      folded_[p] = foldedLocalIntervals(dist_, processors_, pe, halo_);
      built_[p] = 1;
    }
    return {folded_[p] ? &*folded_[p] : nullptr, 1, 0};
  }

  /// Processor `pe`'s set on one piece of a folded distribution's fold:
  /// pe 0's set, read through the piece's reflection shifted by pe * block.
  [[nodiscard]] View onPiece(std::int64_t pe, const DataDistribution::FoldPiece& piece) const {
    return {&canonical_, piece.sign, checkedSub(piece.offset, pe * dist_.block)};
  }

 private:
  DataDistribution dist_;
  std::int64_t processors_;
  std::int64_t halo_;
  PeriodicIntervalSet canonical_;
  std::vector<std::optional<PeriodicIntervalSet>> folded_;  ///< per pe, once built
  std::vector<char> built_;
};

/// Classification recipe of one reference: its placement and the locality
/// sets of its (distribution, halo).
struct RefInfo : RefPlacement {
  LocalSets* sets = nullptr;  ///< null: always local

  [[nodiscard]] bool alwaysLocal() const { return sets == nullptr; }
};

/// Counts a program's accesses and communication under one plan. Keeps the
/// locality sets across phases.
class AccessCounter {
 public:
  AccessCounter(const ir::Program& program, const ir::Bindings& params,
                const ExecutionPlan& plan, std::int64_t processors);

  /// Every access of phase `k`, per array.
  [[nodiscard]] PhaseTally countPhase(std::size_t k);
  /// Global redistributions (k > 0) and frontier refreshes entering phase
  /// `k`, with words and messages; times are left 0.
  [[nodiscard]] PhaseCommunication communication(std::size_t k) const;
  /// Runs of iterations countParallel has counted (ad.dsm.count_runs).
  [[nodiscard]] std::int64_t runs() const { return runs_; }

 private:
  bool countOn(const ApList& aps, std::int64_t pe, const RefInfo& info, ArrayTally& out);
  bool countParallel(const ir::LoweredPhase& phase, std::size_t k, const RefInfo& info,
                     const IterationDistribution& sched, ArrayTally& out);
  bool countUniform(const ApList& aps0, std::int64_t shift, std::int64_t lo, std::int64_t trip,
                    const RefInfo& info, const IterationDistribution& sched, ArrayTally& out);
  void enumerate(const ir::LoweredPhase& phase, const IterationDistribution& sched,
                 const std::vector<RefInfo>& refs, PhaseTally& tally);
  void add(ArrayTally& out, std::int64_t pe, std::int64_t total, std::int64_t local) const;
  LocalSets& localSets(const DataDistribution& dist, std::int64_t halo);

  const ir::Program& program_;
  const ir::Bindings& params_;
  const ExecutionPlan& plan_;
  std::int64_t processors_;
  support::ExpiryPoll poll_;
  std::map<std::tuple<int, std::int64_t, std::int64_t, std::int64_t>, LocalSets> sets_;
  std::int64_t runs_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Per-phase access counting
// ---------------------------------------------------------------------------

std::int64_t PhaseTally::enumeratedRefs() const {
  std::int64_t n = 0;
  for (const auto& a : arrays) {
    if (!a.fallbackCause.empty()) n += a.refs;
  }
  return n;
}

AccessCounter::AccessCounter(const ir::Program& program, const ir::Bindings& params,
                             const ExecutionPlan& plan, std::int64_t processors)
    : program_(program), params_(params), plan_(plan), processors_(processors) {
  AD_REQUIRE(plan.iteration.size() == program.phases().size(), "plan must cover every phase");
  AD_REQUIRE(processors >= 1, "need at least one processor");
}

/// The locality sets under (`dist`, `halo`), made on the first reference
/// that needs them.
LocalSets& AccessCounter::localSets(const DataDistribution& dist, std::int64_t halo) {
  return sets_
      .try_emplace({static_cast<int>(dist.kind), dist.block, dist.fold, halo}, dist,
                   processors_, halo)
      .first->second;
}

void AccessCounter::add(ArrayTally& out, std::int64_t pe, std::int64_t total,
                        std::int64_t local) const {
  const std::int64_t remote = total - local;
  out.counts.local += local;
  out.counts.remote += remote;
  out.counts.remoteBytes += remote * kWordBytes;
  out.peAccesses[static_cast<std::size_t>(pe)] += total;
  out.peRemote[static_cast<std::size_t>(pe)] += remote;
}

/// The accesses of `aps`, all executed by processor `pe`.
bool AccessCounter::countOn(const ApList& aps, std::int64_t pe, const RefInfo& info,
                            ArrayTally& out) {
  std::int64_t local = aps.total();
  if (!info.alwaysLocal()) {
    const View view = info.sets->of(pe);
    if (view.set == nullptr) return false;
    local = countRunIn(aps, view, 0, 0, 1);
  }
  add(out, pe, aps.total(), local);
  return true;
}

/// Reference `k` of a DOALL phase. The parallel index both selects the
/// executing processor (CYCLIC(chunk) schedule) and shifts the tail region;
/// when the shift is uniform, countUniform counts the loop in closed form.
/// Otherwise the tail is collapsed afresh per iteration.
bool AccessCounter::countParallel(const ir::LoweredPhase& phase, std::size_t k,
                                  const RefInfo& info, const IterationDistribution& sched,
                                  ArrayTally& out) {
  const std::size_t parPos = phase.phase().parallelLoopPos();
  const std::int64_t H = processors_;
  ir::NestPoint at = phase.origin();
  const std::function<bool(std::size_t)> run = [&](std::size_t depth) -> bool {
    const auto [lo, trip] = phase.range(depth, at);
    if (depth < parPos) {
      if (trip > kEnumLoopCap) return false;
      for (std::int64_t t = 0; t < trip; ++t) {
        phase.bind(at, depth, lo + t);
        if (!run(depth + 1)) return false;
      }
      return true;
    }
    if (trip == 0) return true;
    if (lo < 0) return false;  // the fallback rejects negative iterations; match it there

    if (const auto shift = phase.stride(k, parPos, at)) {
      phase.bind(at, parPos, lo);
      const auto aps0 = collapseTail(phase, k, parPos + 1, at, poll_);
      return aps0 && countUniform(*aps0, *shift, lo, trip, info, sched, out);
    }

    // Non-uniform (triangular bounds, parallel index inside a pow2): collapse
    // the tail afresh per iteration. Still closed-form per iteration.
    if (trip > kEnumLoopCap) return false;
    for (std::int64_t t = 0; t < trip; ++t) {
      poll_.tick();
      ++runs_;
      phase.bind(at, parPos, lo + t);
      const auto aps = collapseTail(phase, k, parPos + 1, at, poll_);
      if (!aps || !countOn(*aps, sched.executor(lo + t, H), info, out)) return false;
    }
    return true;
  };
  return run(0);
}

/// A DOALL loop of `trip` iterations from `lo` whose iteration u touches
/// `aps0` shifted by shift * u. Counts of iterations u and u + lambda agree
/// when lambda is a multiple of chunk * H (same processor) and shift * lambda
/// a multiple of the locality sets' period, so a range of iterations costs
/// one lambda plus a remainder, independent of its length. The period is
/// block * H under BLOCK-CYCLIC. A folded distribution repeats every fold
/// addresses, but on one monotone piece of the fold also every block * H:
/// there the loop splits into mirror segments (ranges whose every address
/// stays on one piece, and single iterations straddling a reflection point),
/// each counted with the shorter lambda. Whichever of the two takes fewer
/// runs is used; a loop cut into more than kMirrorSegmentCap segments is
/// counted by fold periods.
bool AccessCounter::countUniform(const ApList& aps0, std::int64_t shift, std::int64_t lo,
                                 std::int64_t trip, const RefInfo& info,
                                 const IterationDistribution& sched, ArrayTally& out) {
  const std::int64_t H = processors_;
  const std::int64_t perIter = aps0.total();
  (void)checkedMul(perIter, trip);  // the whole loop's total must fit
  if (info.alwaysLocal()) {
    for (std::int64_t pe = 0; pe < H; ++pe) {
      const std::int64_t n = checkedMul(perIter, sched.iterationsOn(H, pe, lo, trip));
      add(out, pe, n, n);
    }
    return true;
  }
  if (aps0.aps.empty()) return true;

  const std::int64_t chunkH = checkedMul(sched.chunk, H);
  // lcm(chunk * H, period / gcd(shift, period)); INT64_MAX when that overflows.
  const auto lambdaFor = [&](std::int64_t period) {
    const std::int64_t smod = euclidMod(shift, period);
    const std::int64_t shiftPeriod = smod == 0 ? 1 : period / gcd64(smod, period);
    const auto l = tryMul(chunkH / gcd64(chunkH, shiftPeriod), shiftPeriod);
    return l && *l > 0 ? *l : INT64_MAX;
  };
  // Runs counting iterations [u0, u0 + len) takes: one per processor run of
  // the first min(len, lambda) iterations, one more where the remainder ends
  // inside a run.
  const auto runsOf = [&](std::int64_t u0, std::int64_t len, std::int64_t lambda) {
    const std::int64_t span = std::min(len, lambda);
    const std::int64_t first = lo + u0;
    const std::int64_t remEnd = first + len % span;
    return (first + span - 1) / sched.chunk - first / sched.chunk + 1 +
           (remEnd != first && remEnd % sched.chunk != 0 ? 1 : 0);
  };

  const auto h = static_cast<std::size_t>(H);
  std::vector<std::int64_t> local(h, 0), iters(h, 0);  // per processor
  // Iterations [u0, u0 + len), whose counts repeat every lambda: one step per
  // run of iterations on one processor over the first min(len, lambda) of
  // them, split where the remainder ends, each run scaled by its repeats.
  const auto countSegment = [&](std::int64_t u0, std::int64_t len, std::int64_t lambda,
                                const auto& viewOf) {
    const std::int64_t span = std::min(len, lambda);
    const std::int64_t cycles = len / span;
    const std::int64_t remEnd = u0 + len % span;
    for (std::int64_t u = u0; u < u0 + span;) {
      poll_.tick();
      ++runs_;
      const std::int64_t pe = sched.executor(lo + u, H);
      std::int64_t end = std::min(u0 + span, u + sched.chunk - (lo + u) % sched.chunk);
      if (u < remEnd) end = std::min(end, remEnd);
      const View view = viewOf(pe);
      if (view.set == nullptr) return false;
      const std::int64_t times = u < remEnd ? cycles + 1 : cycles;
      const auto p = static_cast<std::size_t>(pe);
      local[p] =
          checkedAdd(local[p], checkedMul(countRunIn(aps0, view, shift, u, end - u), times));
      iters[p] = checkedAdd(iters[p], checkedMul(end - u, times));
      u = end;
    }
    return true;
  };
  const auto wholeSet = [&info](std::int64_t pe) { return info.sets->of(pe); };

  bool counted = false;
  if (info.dist->kind == DataDistribution::Kind::kFoldedBlockCyclic && shift != 0) {
    const DataDistribution& dist = *info.dist;
    const std::int64_t lambda = lambdaFor(checkedMul(dist.block, H));
    // Iteration u touches [amin + shift * u, amax + shift * u].
    std::int64_t amin = INT64_MAX;
    std::int64_t amax = INT64_MIN;
    for (const ArithmeticProgression& ap : aps0.aps) {
      amin = std::min(amin, ap.base);
      amax = std::max(amax, checkedAdd(ap.base, checkedMul(ap.stride, ap.count - 1)));
    }
    struct Segment {
      std::int64_t len;
      DataDistribution::FoldPiece piece;
      bool straddles;
    };
    // The segment starting at iteration u: up to the last iteration whose
    // addresses all stay on u's piece, or u alone when it straddles.
    const auto segmentAt = [&](std::int64_t u) -> Segment {
      const auto piece = dist.foldPiece(checkedAdd(amin, checkedMul(shift, u)));
      if (checkedAdd(amax, checkedMul(shift, u)) > piece.end) return {1, piece, true};
      const std::int64_t last = shift > 0
                                    ? floorDiv(checkedSub(piece.end, amax), shift)
                                    : floorDiv(checkedSub(amin, piece.start), checkedSub(0, shift));
      return {std::min(trip - 1, last) - u + 1, piece, false};
    };
    // Predict the segments' runs; give up past the cap or once whole fold
    // periods would take fewer.
    const std::int64_t maxRuns = runsOf(0, trip, lambdaFor(dist.fold));
    std::int64_t segmentRuns = 0;
    std::int64_t segments = 0;
    for (std::int64_t u = 0; u < trip && segments <= kMirrorSegmentCap && segmentRuns <= maxRuns;
         ++segments) {
      const Segment seg = segmentAt(u);
      segmentRuns += seg.straddles ? 1 : runsOf(u, seg.len, lambda);
      u += seg.len;
    }
    if (segments <= kMirrorSegmentCap && segmentRuns <= maxRuns) {
      for (std::int64_t u = 0; u < trip;) {
        const Segment seg = segmentAt(u);
        const bool ok = seg.straddles ? countSegment(u, 1, 1, wholeSet)
                                      : countSegment(u, seg.len, lambda, [&](std::int64_t pe) {
                                          return info.sets->onPiece(pe, seg.piece);
                                        });
        if (!ok) return false;
        u += seg.len;
      }
      counted = true;
    }
  }
  if (!counted && !countSegment(0, trip, lambdaFor(info.dist->ownerPeriod(H)), wholeSet)) {
    return false;
  }
  for (std::size_t p = 0; p < h; ++p) {
    if (iters[p] == 0) continue;
    add(out, static_cast<std::int64_t>(p), checkedMul(perIter, iters[p]), local[p]);
  }
  return true;
}

/// The fallback: counts the arrays marked with a fallback cause from the
/// phase's runs, each piece of a run executed by one processor
/// (forEachProcessorPiece) charged to it and its addresses classified one by
/// one. Polls cancellation and the deadline once per access.
void AccessCounter::enumerate(const ir::LoweredPhase& phase, const IterationDistribution& sched,
                              const std::vector<RefInfo>& refs, PhaseTally& tally) {
  for (auto& a : tally.arrays) {
    if (a.fallbackCause.empty()) continue;
    a.counts = ArrayCounts{};
    std::fill(a.peAccesses.begin(), a.peAccesses.end(), 0);
    std::fill(a.peRemote.begin(), a.peRemote.end(), 0);
  }
  const std::int64_t H = processors_;
  support::ExpiryPoll poll;
  ir::forEachRun(phase, [&](const ir::AccessRun& run, ir::Bindings&) {
    forEachProcessorPiece(run, sched, H, INT64_MAX, [&](std::int64_t t, std::int64_t n,
                                                        std::int64_t pe) {
      for (const ir::RefRun& r : run.refs) {
        const RefInfo& info = refs[static_cast<std::size_t>(r.ref - phase.phase().refs().data())];
        ArrayTally& a = tally.arrays[info.slot];
        if (a.fallbackCause.empty()) continue;
        std::int64_t local = 0;
        for (std::int64_t i = t; i < t + n; ++i) {
          poll.tick();
          const bool isLocal =
              info.alwaysLocal() || info.dist->isLocal(r.start + r.step * i, pe, H, info.halo);
          local += isLocal ? 1 : 0;
        }
        add(a, pe, n, local);
      }
    });
  });
}

PhaseTally AccessCounter::countPhase(std::size_t k) {
  const ir::Phase& phase = program_.phase(k);
  const ir::LoweredPhase lowered(phase, params_);
  const IterationDistribution& sched = plan_.iteration[k];

  PhaseTally tally;
  std::vector<RefInfo> refs;
  for (const RefPlacement& place : placeRefs(program_, plan_, k, processors_, tally)) {
    RefInfo info{place};
    if (info.dist != nullptr && info.dist->hasOwner()) {
      info.sets = &localSets(*info.dist, info.halo);
    }
    refs.push_back(info);
  }

  bool fallback = false;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const RefInfo& info = refs[i];
    ArrayTally& a = tally.arrays[info.slot];
    if (!a.fallbackCause.empty()) continue;
    if (AD_FAULT_POINT("symval.region")) {
      a.fallbackCause = "fault";
      fallback = true;
      continue;
    }
    bool ok = false;
    try {
      if (phase.hasParallelLoop()) {
        ok = countParallel(lowered, i, info, sched, a);
      } else {  // every access runs on processor 0
        ir::NestPoint at = lowered.origin();
        const auto aps = collapseTail(lowered, i, 0, at, poll_);
        ok = aps && countOn(*aps, 0, info, a);
      }
    } catch (const AnalysisError&) {
      ok = false;  // non-integer form: the enumeration settles it
    }
    if (ok) {
      ++tally.closedFormRefs;
    } else {
      a.fallbackCause = "unknown-region";
      fallback = true;
    }
  }
  if (fallback) enumerate(lowered, sched, refs, tally);
  return tally;
}

// ---------------------------------------------------------------------------
// Communication
// ---------------------------------------------------------------------------

PhaseCommunication AccessCounter::communication(std::size_t k) const {
  PhaseCommunication out;
  for (const auto& arr : program_.arrays()) {
    if (redistributes(program_, plan_, arr.name, k)) {
      const auto& dists = plan_.data.at(arr.name);
      RedistributionStats rs;
      rs.array = arr.name;
      rs.beforePhase = k;
      countRedistribution(dists[k - 1], dists[k], evalInt(arr.size, params_, "array size"),
                          processors_, rs.wordsMoved, rs.messages);
      if (rs.wordsMoved > 0) out.global.push_back(std::move(rs));
    }
    if (auto rs = frontierRefresh(program_, params_, plan_, arr.name, k)) {
      out.frontier.push_back(std::move(*rs));
    }
  }
  return out;
}

std::vector<RefPlacement> placeRefs(const ir::Program& program, const ExecutionPlan& plan,
                                    std::size_t k, std::int64_t processors, PhaseTally& tally) {
  const ir::Phase& phase = program.phase(k);
  std::vector<RefPlacement> refs;
  refs.reserve(phase.refs().size());
  for (const auto& r : phase.refs()) {
    RefPlacement place;
    const auto it = std::find_if(tally.arrays.begin(), tally.arrays.end(),
                                 [&](const ArrayTally& a) { return a.array == r.array; });
    place.slot = static_cast<std::size_t>(it - tally.arrays.begin());
    if (it == tally.arrays.end()) {
      ArrayTally& a = tally.arrays.emplace_back();
      a.array = r.array;
      a.peAccesses.assign(static_cast<std::size_t>(processors), 0);
      a.peRemote.assign(static_cast<std::size_t>(processors), 0);
    }
    ++tally.arrays[place.slot].refs;
    if (!phase.isPrivatized(r.array)) {
      const auto dit = plan.data.find(r.array);
      AD_REQUIRE(dit != plan.data.end(), "plan missing array " + r.array);
      place.dist = &dit->second[k];
      if (r.kind == ir::AccessKind::kRead) {
        if (auto hit = plan.halo.find(r.array); hit != plan.halo.end()) {
          place.halo = hit->second[k];
        }
      }
    }
    refs.push_back(place);
  }
  return refs;
}

PlanCounts countPlan(const ir::Program& program, const ir::Bindings& params,
                     const ExecutionPlan& plan, std::int64_t processors) {
  const auto start = std::chrono::steady_clock::now();
  obs::metrics().counter("ad.dsm.count_passes").add(1);
  AccessCounter counter(program, params, plan, processors);
  PlanCounts counts;
  for (std::size_t k = 0; k < program.phases().size(); ++k) {
    counts.communication.push_back(counter.communication(k));
    counts.tallies.push_back(counter.countPhase(k));
  }
  obs::metrics().counter("ad.dsm.count_runs").add(counter.runs());
  counts.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return counts;
}

ObservedTrace observedTrace(const ir::Program& program, const PlanCounts& counts) {
  AD_REQUIRE(counts.tallies.size() == program.phases().size(), "counts must cover every phase");
  ObservedTrace trace;
  for (std::size_t k = 0; k < counts.tallies.size(); ++k) {
    PhaseCounts pc;
    pc.phase = program.phase(k).name();
    for (const auto& a : counts.tallies[k].arrays) pc.arrays.emplace(a.array, a.counts);
    trace.phases.push_back(std::move(pc));
  }
  for (const auto& comm : counts.communication) {
    trace.redistributions.insert(trace.redistributions.end(), comm.frontier.begin(),
                                 comm.frontier.end());
  }
  for (const auto& comm : counts.communication) {
    trace.redistributions.insert(trace.redistributions.end(), comm.global.begin(),
                                 comm.global.end());
  }
  return trace;
}

void countRedistribution(const DataDistribution& from, const DataDistribution& to,
                         std::int64_t size, std::int64_t processors, std::int64_t& words,
                         std::int64_t& messages) {
  // One byte per (src, dst) pair: has the pair carried a word yet?
  std::vector<char> seen(static_cast<std::size_t>(checkedMul(processors, processors)), 0);
  messages = 0;
  const auto walk = [&](std::int64_t limit) {
    std::int64_t moved = 0;
    forEachOwnerRun(from, to, processors, 0, limit,
                    [&](std::int64_t begin, std::int64_t end, std::int64_t src, std::int64_t dst) {
                      if (src == dst) return;
                      moved += end - begin;
                      char& pair = seen[static_cast<std::size_t>(src * processors + dst)];
                      messages += pair == 0 ? 1 : 0;
                      pair = 1;
                    });
    return moved;
  };
  const std::int64_t p1 = from.ownerPeriod(processors);
  const std::int64_t p2 = to.ownerPeriod(processors);
  std::int64_t lambda = size;
  if (const auto l = tryMul(p1 / gcd64(p1, p2), p2); l && *l > 0) {
    lambda = std::min(size, *l);
  }
  if (lambda >= size) {
    words = walk(size);
  } else {
    const std::int64_t perPeriod = walk(lambda);
    words = checkedAdd(checkedMul(perPeriod, size / lambda), walk(size % lambda));
  }
}

}  // namespace ad::dsm
