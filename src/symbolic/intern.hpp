// Hash-consed symbolic expressions and the memoized proof/simplification
// cache.
//
// The descriptor algebra asks the RangeAnalyzer the same questions over and
// over: every (phase, array) pair of a code rebuilds an analyzer over the
// *same* per-phase assumptions, and the batched engine analyzes whole suites
// where stride/offset families (TFFT2's 2^(L-1) * J, P * 2^-L, ...) recur
// across arrays, phases, codes, and processor counts. This module
// deduplicates that work process-wide:
//
//  - ExprIntern: a sharded hash-consing arena. Each distinct normal form is
//    materialized exactly once as an immutable node in a bump-allocated
//    chunk, found through a per-shard open-addressing table keyed by a
//    structural hash that is computed once at intern time and cached on the
//    node. The handle type, InternedExpr, is a stable pointer: interned
//    equality is pointer comparison and hashing is one cached-word read,
//    which is what makes the memo tables below O(1) probes instead of
//    O(log n) structural tree compares.
//
//  - ProofMemo: a registry of per-context caches of RangeAnalyzer results.
//    A "context" is the exact serialization of an Assumptions set (symbol
//    kinds, effective bounds, facts) — two analyzers with identical
//    serializations are behaviorally identical, so their answers are
//    interchangeable. The serialization and its hash are computed once per
//    Assumptions instance (Assumptions::memoKey) and the registry probes by
//    that cached hash, so the hit path allocates nothing. Each cached value
//    is computed from *fresh* scratch state with the full depth budget (see
//    RangeAnalyzer), making it a pure function of (context, query): hits
//    return byte-identical answers at any thread count and interleaving,
//    which is what lets the parallel engine be proven output-identical to
//    the serial one.
//
// Correctness never keys on the hash alone: every probe confirms candidates
// structurally (interner) or by pointer identity (memo), so a degenerate
// hash only degrades probes to linear scans. DegenerateHashGuard forces
// exactly that in tests.
//
// The arena is sharded; the context registry and each memo context have one
// mutex each (all safe under TSan). Cache traffic is exported to the
// ad.metrics.v1 registry as ad.intern.proof_hits / ad.intern.proof_misses /
// ad.intern.contexts / ad.intern.exprs / ad.intern.bytes, and the contention
// profiler attributes hits/misses/probe lengths per arena shard
// ("intern.expr"), per context row ("memo.context") and to the registry's
// one row ("memo.registry").
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "symbolic/ranges.hpp"

namespace ad::sym {

/// Deterministic structural fingerprint of a normal form (the hash cached on
/// arena nodes; collisions are fine — correctness never keys on it alone).
[[nodiscard]] std::uint64_t fingerprintExpr(const Expr& e);

/// Canonical serialization of a normal form over symbol ids. Injective:
/// equal strings <=> equal Exprs (relative to one symbol table).
void serializeExpr(const Expr& e, std::string& out);

/// Exact serialization of everything a RangeAnalyzer reads from an
/// Assumptions set: per-symbol kind and effective lower/upper bounds, plus
/// the registered facts. Equal strings => behaviorally identical provers.
/// Hot paths should use Assumptions::memoKey(), which caches this.
[[nodiscard]] std::string serializeAssumptions(const Assumptions& a);

namespace detail {

/// One immutable arena node: the canonical Expr plus its structural hash,
/// cached at intern time so handle hashing is a single word read.
struct InternNode {
  std::uint64_t hash = 0;
  Expr expr;
};

/// Test hook: when set, every intern-time hash collapses to one value, so
/// all expressions land in one shard and one probe cluster. Output must not
/// change (the tables fall back to structural / pointer comparison).
extern std::atomic<bool> gDegenerateHash;

[[nodiscard]] inline bool degenerateHashForced() {
  return gDegenerateHash.load(std::memory_order_relaxed);
}

}  // namespace detail

/// The hash used for shard selection and table probes (fingerprint, or the
/// degenerate constant under the test hook).
[[nodiscard]] inline std::uint64_t internHash(const Expr& e) {
  return detail::degenerateHashForced() ? 0 : fingerprintExpr(e);
}

// ---------------------------------------------------------------------------
// InternedExpr
// ---------------------------------------------------------------------------

/// Stable handle to a hash-consed Expr. Two handles from the same arena
/// generation compare equal iff the underlying normal forms are equal, so
/// equality is pointer identity and hash() is one cached-word read. Handles
/// are invalidated by ExprIntern::clear() (tests and bench legs only).
class InternedExpr {
 public:
  InternedExpr() = default;  ///< null handle

  [[nodiscard]] const Expr& operator*() const noexcept { return node_->expr; }
  [[nodiscard]] const Expr* operator->() const noexcept { return &node_->expr; }
  [[nodiscard]] const Expr* get() const noexcept { return node_ ? &node_->expr : nullptr; }
  [[nodiscard]] std::uint64_t hash() const noexcept { return node_->hash; }
  [[nodiscard]] explicit operator bool() const noexcept { return node_ != nullptr; }

  /// Pointer identity — the whole point of hash consing.
  friend bool operator==(const InternedExpr&, const InternedExpr&) = default;

 private:
  friend class ExprIntern;
  friend class ProofMemoContext;
  explicit InternedExpr(const detail::InternNode* node) : node_(node) {}
  const detail::InternNode* node_ = nullptr;
};

// ---------------------------------------------------------------------------
// ExprIntern
// ---------------------------------------------------------------------------

class ExprIntern {
 public:
  static ExprIntern& global();

  /// The canonical arena node for `e`'s normal form. The miss path stores
  /// exactly one node (one copy from the lvalue overload, zero from the
  /// rvalue one); the hit path allocates nothing.
  [[nodiscard]] InternedExpr intern(const Expr& e);
  [[nodiscard]] InternedExpr intern(Expr&& e);

  [[nodiscard]] std::size_t size() const;
  /// Approximate arena footprint: node slabs plus the deep heap footprint of
  /// the stored Exprs and the open-addressing tables (mirrors the
  /// ad.intern.bytes gauge).
  [[nodiscard]] std::size_t bytes() const;

  struct TableStats {
    std::size_t exprs = 0;  ///< interned nodes
    std::size_t bytes = 0;  ///< approximate arena footprint
    std::size_t slots = 0;  ///< open-addressing capacity over all shards
    [[nodiscard]] double loadFactor() const {
      return slots == 0 ? 0.0 : static_cast<double>(exprs) / static_cast<double>(slots);
    }
  };
  [[nodiscard]] TableStats tableStats() const;

  /// Drops every node and resets the tables. Outstanding InternedExpr
  /// handles (and the pointer-keyed proof-memo entries built from them)
  /// dangle afterwards, so this also clears ProofMemo::global(); callers
  /// are tests and bench legs that restart cold between runs.
  void clear();

 private:
  // 32 cache-line-aligned shards: sized and padded so eight workers interning
  // the suite's stride/offset families rarely collide on a shard, and a
  // contended shard never false-shares its neighbour's mutex. Lock waits,
  // hit/miss traffic, and probe lengths are attributed per shard by the
  // contention profiler (obs/profiler.hpp, family "intern.expr").
  static constexpr std::size_t kShards = 32;
  static constexpr std::size_t kInitialSlots = 64;  ///< per shard, power of two
  static constexpr std::size_t kChunkNodes = 64;    ///< bump-arena slab size
  // Grow at 70% occupancy: linear probing stays short (mean probe length on
  // the suite workloads ~1.1, see bench/intern_microbench).
  static constexpr std::size_t kGrowNum = 7;
  static constexpr std::size_t kGrowDen = 10;

  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::vector<const detail::InternNode*> slots;           ///< open addressing; null = empty
    std::vector<std::unique_ptr<detail::InternNode[]>> chunks;  ///< bump-allocated slabs
    std::size_t lastChunkUsed = 0;  ///< nodes consumed in chunks.back()
    std::size_t count = 0;
    std::size_t bytes = 0;
  };

  template <typename E>
  InternedExpr internImpl(E&& e);

  Shard shards_[kShards];
  std::atomic<std::size_t> count_{0};  ///< arena size without cross-shard locks
  std::atomic<std::size_t> bytes_{0};  ///< footprint mirror of the gauge
};

/// RAII test hook: forces every intern-time hash to one degenerate value so
/// all expressions (and all assumptions contexts) collapse into a single
/// shard/bucket. Clears the arena and proof memo on entry and exit, since
/// nodes interned under one hash regime are unfindable under the other.
/// Results must be byte-identical either way — that is the invariant the
/// golden/differential tests pin under this guard.
class DegenerateHashGuard {
 public:
  DegenerateHashGuard();
  ~DegenerateHashGuard();
  DegenerateHashGuard(const DegenerateHashGuard&) = delete;
  DegenerateHashGuard& operator=(const DegenerateHashGuard&) = delete;

 private:
  bool previous_;
};

// ---------------------------------------------------------------------------
// ProofMemo
// ---------------------------------------------------------------------------

/// Memoized RangeAnalyzer answers for one assumptions context, keyed by
/// (op, interned pointer): open-addressing tables whose probes are one
/// cached-hash read plus pointer compares — no structural Expr::compare on
/// any path. Thread-safe: one mutex guards the three tables.
class ProofMemoContext {
 public:
  enum class Op : std::uint8_t {
    kNonNegative,    ///< proveNonNegative(e)
    kPositive,       ///< provePositive(e)
    kIntegerValued,  ///< proveIntegerValued(e)
    kSign,           ///< sign(e)
    kUpperBound,     ///< upperBoundExpr(e)
    kLowerBound,     ///< lowerBoundExpr(e)
  };

  /// `profileRow` is the profiler "memo.context" row this context's lock
  /// and probes are attributed to (ProofMemo picks its key hash % 32).
  explicit ProofMemoContext(std::size_t profileRow) : profileRow_(profileRow) {}

  /// The cached answer to `op` on `e`, if any. T is the query's answer type:
  /// bool (kNonNegative, kPositive, kIntegerValued), std::optional<int>
  /// (kSign) or std::optional<Expr> (kUpperBound, kLowerBound); an inner
  /// nullopt is a cached "unknown".
  template <typename T>
  [[nodiscard]] std::optional<T> lookup(Op op, const InternedExpr& e);
  /// Publishes an answer. Two threads that miss together both compute and
  /// both store; answers are pure functions of (context, query), so the
  /// first writer's value is kept and the second is identical.
  template <typename T>
  void store(Op op, const InternedExpr& e, const T& value);

 private:
  /// One open-addressing table keyed by (op, node pointer). Linear probing,
  /// no deletion (clear() drops whole contexts), growth at 70% occupancy.
  /// Under the degenerate-hash hook every key probes the same cluster and
  /// the pointer+op compares alone disambiguate — slower, never wrong.
  template <typename Value>
  struct OpPtrTable {
    struct Slot {
      const detail::InternNode* node = nullptr;  ///< null = empty
      Op op = Op::kNonNegative;
      Value value{};
    };
    std::vector<Slot> slots;
    std::size_t count = 0;

    [[nodiscard]] const Value* find(Op op, const InternedExpr& e, std::size_t& steps) const;
    void insert(Op op, const InternedExpr& e, Value value);
    void grow();
  };

  /// The table holding answers of type T.
  template <typename T>
  auto& tableFor();

  const std::size_t profileRow_;
  std::mutex mu_;
  OpPtrTable<bool> bools_;
  OpPtrTable<std::optional<int>> signs_;
  // Bound results are themselves interned: values recur across queries (the
  // same bound expression answers many inputs), so the arena shares their
  // storage. Inner nullopt = "no bound provable", cached as such.
  OpPtrTable<std::optional<InternedExpr>> exprs_;
};

class ProofMemo {
 public:
  static ProofMemo& global();

  /// Enabled by default; tests and the serial-baseline bench leg disable it.
  /// Disabling only stops *new* RangeAnalyzers from attaching to the memo.
  [[nodiscard]] static bool enabled();
  static void setEnabled(bool on);

  /// The shared cache for this assumptions context (created on first use).
  /// Probes by the Assumptions' cached key hash; the hit path allocates
  /// nothing and compares the cached serialization only within a bucket.
  [[nodiscard]] std::shared_ptr<ProofMemoContext> context(const Assumptions& a);

  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t contexts = 0;

    [[nodiscard]] double hitRate() const {
      const double total = static_cast<double>(hits + misses);
      return total == 0.0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };
  [[nodiscard]] Stats stats() const;

  /// Drops every context and zeroes the hit/miss tallies (bench legs and
  /// property tests use this to measure cold-vs-warm behavior).
  void clear();

  // Called by RangeAnalyzer on every memo probe (also mirrored to metrics).
  void recordHit();
  void recordMiss();

 private:
  /// Rows of profiler family "memo.context" that contexts spread over.
  static constexpr std::size_t kContextRows = 32;
  struct Entry {
    std::string key;
    std::shared_ptr<ProofMemoContext> ctx;
  };
  // One lock over one table: the probe is per RangeAnalyzer *construction*,
  // not per query (about 600 on analysis_scaling's jobs=8 leg, a median of
  // 4 of them contended; docs/PERF.md). Keyed by the cached hash; the exact
  // serialization is compared only within a bucket, so a long-lived server's
  // thousands of contexts cost a hit one compare.
  std::mutex mu_;
  std::unordered_map<std::uint64_t, std::vector<Entry>> buckets_;
  std::atomic<std::int64_t> contextCount_{0};
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
};

/// RAII enable/disable for tests: restores the previous state on scope exit.
class ProofMemoEnabledGuard {
 public:
  explicit ProofMemoEnabledGuard(bool on) : previous_(ProofMemo::enabled()) {
    ProofMemo::setEnabled(on);
  }
  ~ProofMemoEnabledGuard() { ProofMemo::setEnabled(previous_); }
  ProofMemoEnabledGuard(const ProofMemoEnabledGuard&) = delete;
  ProofMemoEnabledGuard& operator=(const ProofMemoEnabledGuard&) = delete;

 private:
  bool previous_;
};

}  // namespace ad::sym
