#include "obs/obs.hpp"

#include <algorithm>
#include <sstream>

#include "support/string_utils.hpp"

namespace ad::obs {

namespace {

/// Shard index of the calling thread: threads are numbered in registration
/// order, so a fixed pool of workers spreads evenly over the cells.
std::size_t threadShard() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot % Counter::kShards;
}

}  // namespace

// ---------------------------------------------------------------------------
// Counter / Histogram
// ---------------------------------------------------------------------------

void Counter::add(std::int64_t n) noexcept {
  cells_[threadShard()].v.fetch_add(n, std::memory_order_relaxed);
}

std::int64_t Counter::value() const noexcept {
  std::int64_t total = 0;
  for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() noexcept {
  for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
}

std::int64_t Histogram::bucketBound(std::size_t i) noexcept {
  if (i + 1 >= kBuckets) return std::numeric_limits<std::int64_t>::max();
  return std::int64_t{1} << i;
}

void Histogram::observe(std::int64_t v) noexcept {
  if (v < 0) v = 0;
  std::size_t b = 0;
  while (b + 1 < kBuckets && v > bucketBound(b)) ++b;
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.add(1);
  sum_.add(v);
  std::int64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur && !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::int64_t Histogram::count() const noexcept { return count_.value(); }
std::int64_t Histogram::sum() const noexcept { return sum_.value(); }

std::int64_t Histogram::minValue() const noexcept {
  const std::int64_t m = min_.load(std::memory_order_relaxed);
  return m == std::numeric_limits<std::int64_t>::max() ? 0 : m;
}

std::int64_t Histogram::maxValue() const noexcept {
  const std::int64_t m = max_.load(std::memory_order_relaxed);
  return m == std::numeric_limits<std::int64_t>::min() ? 0 : m;
}

std::int64_t Histogram::bucketCount(std::size_t i) const noexcept {
  return i < kBuckets ? buckets_[i].load(std::memory_order_relaxed) : 0;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.reset();
  sum_.reset();
  min_.store(std::numeric_limits<std::int64_t>::max(), std::memory_order_relaxed);
  max_.store(std::numeric_limits<std::int64_t>::min(), std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>()).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  return *histograms_.emplace(std::string(name), std::make_unique<Histogram>()).first->second;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::string MetricsRegistry::toJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\n  \"schema\": \"" << kMetricsSchema << "\",\n";
  os << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "\n" : ",\n") << "    " << jsonQuote(name) << ": " << c->value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";
  os << "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "\n" : ",\n") << "    " << jsonQuote(name) << ": " << g->value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";
  os << "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "\n" : ",\n") << "    " << jsonQuote(name) << ": {\"count\": " << h->count()
       << ", \"sum\": " << h->sum() << ", \"min\": " << h->minValue()
       << ", \"max\": " << h->maxValue() << ", \"buckets\": [";
    // Only buckets up to the last non-empty one: keeps the document small
    // without losing information (trailing buckets are zero).
    std::size_t lastUsed = 0;
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (h->bucketCount(i) > 0) lastUsed = i;
    }
    for (std::size_t i = 0; i <= lastUsed; ++i) {
      os << (i == 0 ? "" : ", ") << "{\"le\": " << Histogram::bucketBound(i)
         << ", \"count\": " << h->bucketCount(i) << "}";
    }
    os << "]}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

MetricsRegistry& metrics() {
  static MetricsRegistry registry;
  return registry;
}

// ---------------------------------------------------------------------------
// Tracer / Span
// ---------------------------------------------------------------------------

namespace {
thread_local std::int64_t g_traceTid = 0;
}  // namespace

std::int64_t Tracer::nowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::record(TraceEvent e) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
}

void Tracer::nameThread(std::int64_t tid, std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  threadNames_[tid] = std::move(name);
}

void Tracer::setCurrentThreadId(std::int64_t tid) noexcept { g_traceTid = tid; }
std::int64_t Tracer::currentThreadId() noexcept { return g_traceTid; }

std::vector<TraceEvent> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::map<std::string, SpanStats> Tracer::statsByName() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, SpanStats> out;
  for (const auto& e : events_) {
    SpanStats& s = out[e.name];
    ++s.count;
    s.totalUs += e.dur;
  }
  return out;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  threadNames_.clear();
}

std::string Tracer::toJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  std::map<std::int64_t, std::string> names = threadNames_;
  names.emplace(0, "main");
  for (const auto& [tid, name] : names) {
    os << (first ? "" : ",\n")
       << "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " << tid
       << ", \"args\": {\"name\": " << jsonQuote(name) << "}}";
    first = false;
  }
  for (const auto& e : events_) {
    os << (first ? "" : ",\n") << "  {\"name\": " << jsonQuote(e.name)
       << ", \"cat\": " << jsonQuote(e.cat) << ", \"ph\": \"X\", \"ts\": " << e.ts
       << ", \"dur\": " << e.dur << ", \"pid\": 1, \"tid\": " << e.tid << "}";
    first = false;
  }
  os << "\n]}\n";
  return os.str();
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

Span::Span(std::string_view name, std::string_view cat) {
  Tracer& t = tracer();
  if (!t.enabled()) return;
  active_ = true;
  name_.assign(name);
  cat_.assign(cat);
  startUs_ = t.nowUs();
}

Span::~Span() {
  if (!active_) return;
  Tracer& t = tracer();
  const std::int64_t end = t.nowUs();
  t.record(TraceEvent{std::move(name_), std::move(cat_), startUs_, end - startUs_,
                      Tracer::currentThreadId()});
}

}  // namespace ad::obs
