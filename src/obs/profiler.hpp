// Task-level contention profiler: where does the wall-clock of a parallel
// analysis run actually go?
//
// The ad.metrics.v1 counters (pool tasks, memo hits, idle totals)
// are process-wide aggregates — they can say *that* eight threads only buy
// 8% over one, but not *where* the other seven threads wait. This module
// attributes every microsecond of a run to a (thread, cause) pair, the same
// way the paper's descriptors turn opaque traffic into attributable
// per-reference costs:
//
//  - Per-thread tracks (ThreadStats): work vs. queue-wait vs. lock-wait vs.
//    idle time, plus task/helped tallies. Threads register by *name*
//    ("pool.w0", "pool.w3", "main"), so short-lived workers from successive
//    pools accumulate into stable rows instead of leaking one row per
//    std::thread.
//
//  - Per-shard lock accounting (ShardStats): the interned-expression arena
//    and the proof memo time every contended mutex acquisition per shard,
//    and count hits/misses per shard, so "the arena is hot" becomes "shard 5
//    of the arena eats 80% of the lock-wait".
//
//  - Export: summary() renders a stable-schema "ad.profile.v1" JSON document
//    (--profile-out); per-thread task activity also lands in the Chrome/
//    Perfetto trace through the existing obs::Tracer (--trace-out), because
//    the pool workers carry named trace tids while the profiler is enabled.
//
// Cost discipline: when disabled (the default) every instrumentation point
// is a single relaxed atomic load — no clock reads, no allocation, no
// locking — mirroring obs::Span. Enabled, the hot additions are two
// steady_clock reads per pool task and one try_lock per profiled mutex;
// bench/contention_profile measures the total below 5% on the six-code
// suite and records it in BENCH_contention.json.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/obs.hpp"

namespace ad::obs {

inline constexpr std::string_view kProfileSchema = "ad.profile.v1";

/// One named per-thread accounting track. All fields are relaxed atomics:
/// the owning thread is the only writer on the hot path, and readers only
/// need eventually-consistent totals for the summary document.
struct alignas(64) ThreadStats {
  std::atomic<std::int64_t> workUs{0};         ///< inside task bodies
  std::atomic<std::int64_t> queueWaitUs{0};    ///< tasks' submit->start latency
  std::atomic<std::int64_t> lockWaitUs{0};     ///< contended profiled mutexes
  std::atomic<std::int64_t> idleUs{0};         ///< parked on the pool idle CV
  std::atomic<std::int64_t> tasks{0};
  std::atomic<std::int64_t> helped{0};  ///< tasks run inside TaskGroup::wait
};

/// Per-shard lock/cache accounting for one sharded structure.
struct alignas(64) ShardStats {
  std::atomic<std::int64_t> acquisitions{0};
  std::atomic<std::int64_t> contended{0};   ///< try_lock failed, had to wait
  std::atomic<std::int64_t> lockWaitUs{0};  ///< total contended wait
  std::atomic<std::int64_t> hits{0};
  std::atomic<std::int64_t> misses{0};
  /// Total open-addressing slots inspected across all probes of this shard;
  /// probeSteps / (hits + misses) is the mean probe length, the direct
  /// health check of the hash-consed tables (≈1 when the cached hashes
  /// spread well, table-sized under the degenerate-hash test hook).
  std::atomic<std::int64_t> probeSteps{0};
};

/// The sharded structures the profiler knows how to attribute. Fixed enum —
/// lookups must be branch-free index math, not registry probes.
enum class ShardFamily : std::uint8_t {
  kExprIntern = 0,   ///< sym::ExprIntern arena shards
  kMemoContext,      ///< sym::ProofMemoContext locks, one per context, row = key hash % 32
  kMemoRegistry,     ///< sym::ProofMemo context table (one lock, row 0)
  kPhaseInfo,        ///< loc::analyzePhaseArray result-cache shards
};
inline constexpr std::size_t kShardFamilies = 4;
inline constexpr std::size_t kMaxShardsPerFamily = 64;

[[nodiscard]] const char* shardFamilyName(ShardFamily f);

class Profiler {
 public:
  /// Enables recording and binds the calling thread as the "main" row, so a
  /// profile always has the coordinating thread even when it never touches a
  /// contended shard (pool workers bind themselves as "pool.wN").
  void enable() {
    threadStats("main");
    enabled_.store(true, std::memory_order_relaxed);
  }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// The calling thread's track. First use binds the thread to `name`
  /// (creating the row if new); later calls ignore `name` and return the
  /// cached binding. Rows are shared by name: successive pools' "pool.w0"
  /// workers accumulate into one row. Safe while disabled (rows register so
  /// the exported schema is stable).
  ThreadStats& threadStats(std::string_view name);

  /// Rebinds the calling thread to `name` (pool workers call this on entry;
  /// helpers that never bind land in "main").
  void bindCurrentThread(std::string_view name);

  [[nodiscard]] ShardStats& shard(ShardFamily family, std::size_t index) noexcept {
    return shards_[static_cast<std::size_t>(family)][index % kMaxShardsPerFamily];
  }

  /// Lock-wait histogram (microseconds) of one family, fed by ShardLock.
  [[nodiscard]] Histogram& lockWaitHistogram(ShardFamily family) noexcept {
    return lockWait_[static_cast<std::size_t>(family)];
  }

  /// Microsecond clock shared with the tracer (so profile numbers and trace
  /// timestamps line up).
  [[nodiscard]] static std::int64_t nowUs();

  /// Zeroes every row and shard cell; name registrations survive, matching
  /// MetricsRegistry::reset().
  void reset();

  /// Stable-schema "ad.profile.v1" JSON: per-thread wait-vs-work rows,
  /// per-shard lock/cache rows (only shards with any traffic), per-family
  /// lock-wait histograms.
  [[nodiscard]] std::string summary() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  ///< guards names_ registration only
  // Fixed-capacity name table: rows never move once handed out (threads cache
  // the pointer), and the profile document wants a bounded, stable row set.
  static constexpr std::size_t kMaxThreads = 64;
  struct NamedTrack {
    std::string name;
    ThreadStats stats;
  };
  NamedTrack tracks_[kMaxThreads];
  std::size_t trackCount_ = 0;
  ShardStats shards_[kShardFamilies][kMaxShardsPerFamily];
  Histogram lockWait_[kShardFamilies];
};

/// The process-wide profiler.
Profiler& profiler();

/// Mutex guard that attributes contended acquisitions to (family, shard) and
/// the calling thread. Disabled profiler: one relaxed load + plain lock.
class ShardLock {
 public:
  ShardLock(std::mutex& mu, ShardFamily family, std::size_t index) : mu_(mu) {
    Profiler& p = profiler();
    if (!p.enabled()) {
      mu_.lock();
      return;
    }
    lockContended(p, family, index);
  }
  ~ShardLock() { mu_.unlock(); }

  ShardLock(const ShardLock&) = delete;
  ShardLock& operator=(const ShardLock&) = delete;

 private:
  void lockContended(Profiler& p, ShardFamily family, std::size_t index);
  std::mutex& mu_;
};

}  // namespace ad::obs
