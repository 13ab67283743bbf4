// Pipeline-wide observability: tracing spans and a metrics registry.
//
// Two process-wide singletons, both thread-safe:
//
//  - obs::tracer() collects timed span events. obs::Span is an RAII scope
//    that records one Chrome/Perfetto "complete" event (ph:"X") when the
//    tracer is enabled; when disabled (the default) the constructor is a
//    single relaxed atomic load and nothing else — instrumentation stays in
//    release builds at near-zero cost. Tracer::toJson() renders the Chrome
//    trace-event format that chrome://tracing and ui.perfetto.dev load
//    directly.
//
//  - obs::metrics() is a registry of named counters, gauges, and histograms.
//    Counters shard their cell across cache lines so concurrent increments
//    do not contend; MetricsRegistry::toJson() renders a stable-schema document
//    ("ad.metrics.v1", keys sorted).
//
// Naming convention for both spans and metrics: `ad.<subsystem>.<name>` for
// metrics (ad.desc.stride_coalescings, ad.sim.remote_accesses) and
// `<subsystem>.<stage>` for span names (pipeline.ilp_solve, sim.redistribute).
// Instruments must register their metric names unconditionally (fetch the
// counter even when adding zero) so the exported schema is stable across
// inputs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ad::obs {

inline constexpr std::string_view kMetricsSchema = "ad.metrics.v1";

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Monotonic counter, sharded across cache lines: each thread lands on a
/// fixed shard, so concurrent add() calls from pool workers never bounce one
/// cache line around.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void add(std::int64_t n = 1) noexcept;
  [[nodiscard]] std::int64_t value() const noexcept;
  void reset() noexcept;

 private:
  struct alignas(64) Cell {
    std::atomic<std::int64_t> v{0};
  };
  Cell cells_[kShards];
};

/// Last-write-wins instantaneous value (model sizes, configuration).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Exponential-bucket histogram of non-negative values (base-2 bounds
/// 1, 2, 4, ... plus an overflow bucket). Thread-safe relaxed atomics
/// throughout; count/sum are exact, min/max maintained by CAS.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 32;  ///< le 2^0 .. 2^30, then +inf

  void observe(std::int64_t v) noexcept;
  [[nodiscard]] std::int64_t count() const noexcept;
  [[nodiscard]] std::int64_t sum() const noexcept;
  [[nodiscard]] std::int64_t minValue() const noexcept;  ///< 0 when empty
  [[nodiscard]] std::int64_t maxValue() const noexcept;  ///< 0 when empty
  [[nodiscard]] std::int64_t bucketCount(std::size_t i) const noexcept;
  /// Inclusive upper bound of bucket i; INT64_MAX for the overflow bucket.
  [[nodiscard]] static std::int64_t bucketBound(std::size_t i) noexcept;
  void reset() noexcept;

 private:
  std::atomic<std::int64_t> buckets_[kBuckets]{};
  Counter count_;
  Counter sum_;
  std::atomic<std::int64_t> min_{std::numeric_limits<std::int64_t>::max()};
  std::atomic<std::int64_t> max_{std::numeric_limits<std::int64_t>::min()};
};

/// Named instrument registry. Lookup takes a mutex (cache the reference on
/// hot paths); the instruments themselves are lock-free. References stay
/// valid for the life of the process — reset() zeroes values, it never
/// removes registrations, so the exported key set only grows.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Zeroes every instrument (registrations survive).
  void reset();

  /// Stable-schema JSON: {"schema":"ad.metrics.v1","counters":{...},
  /// "gauges":{...},"histograms":{...}} with keys in sorted order.
  [[nodiscard]] std::string toJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// The process-wide registry.
MetricsRegistry& metrics();

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// One Chrome trace-event "complete" event (ph:"X").
struct TraceEvent {
  std::string name;
  std::string cat;
  std::int64_t ts = 0;   ///< microseconds since the tracer epoch
  std::int64_t dur = 0;  ///< microseconds
  std::int64_t tid = 0;
};

struct SpanStats {
  std::int64_t count = 0;
  std::int64_t totalUs = 0;
};

class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Microseconds since the tracer was constructed (works while disabled).
  [[nodiscard]] std::int64_t nowUs() const;

  void record(TraceEvent e);

  /// Associates `tid` with a display name (emitted as thread_name metadata).
  void nameThread(std::int64_t tid, std::string name);

  /// The logical trace tid of the calling thread (0 unless set; exported as
  /// "main" unless named otherwise). Pool workers set 100 + their index so
  /// their spans land on separate tracks in Perfetto.
  static void setCurrentThreadId(std::int64_t tid) noexcept;
  [[nodiscard]] static std::int64_t currentThreadId() noexcept;

  [[nodiscard]] std::vector<TraceEvent> snapshot() const;
  /// Aggregated wall time per span name (for per-stage breakdowns).
  [[nodiscard]] std::map<std::string, SpanStats> statsByName() const;

  /// Drops all recorded events and thread names; keeps the enabled state.
  void clear();

  /// Chrome trace-event JSON document ({"traceEvents":[...]}).
  [[nodiscard]] std::string toJson() const;

 private:
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::map<std::int64_t, std::string> threadNames_;
};

/// The process-wide tracer.
Tracer& tracer();

/// RAII span: records one complete event on the process tracer covering the
/// scope's lifetime. When the tracer is disabled, construction is one
/// relaxed load and destruction a branch — no clock reads, no allocation.
class Span {
 public:
  explicit Span(std::string_view name, std::string_view cat = "pipeline");
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::string name_;
  std::string cat_;
  std::int64_t startUs_ = 0;
  bool active_ = false;
};

}  // namespace ad::obs
