#include "obs/profiler.hpp"

#include <sstream>

#include "support/string_utils.hpp"

namespace ad::obs {

namespace {

// The calling thread's cached row. One global profiler, so one slot.
thread_local ThreadStats* tlStats = nullptr;

void appendHistogram(std::ostream& os, const Histogram& h) {
  os << "{\"count\": " << h.count() << ", \"sum\": " << h.sum() << ", \"min\": " << h.minValue()
     << ", \"max\": " << h.maxValue() << ", \"buckets\": [";
  std::size_t lastUsed = 0;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    if (h.bucketCount(i) > 0) lastUsed = i;
  }
  for (std::size_t i = 0; i <= lastUsed; ++i) {
    os << (i == 0 ? "" : ", ") << "{\"le\": " << Histogram::bucketBound(i)
       << ", \"count\": " << h.bucketCount(i) << "}";
  }
  os << "]}";
}

}  // namespace

const char* shardFamilyName(ShardFamily f) {
  switch (f) {
    case ShardFamily::kExprIntern: return "intern.expr";
    case ShardFamily::kMemoContext: return "memo.context";
    case ShardFamily::kMemoRegistry: return "memo.registry";
    case ShardFamily::kPhaseInfo: return "loc.phase_array";
  }
  return "unknown";
}

ThreadStats& Profiler::threadStats(std::string_view name) {
  if (tlStats != nullptr) return *tlStats;
  bindCurrentThread(name);
  return *tlStats;
}

void Profiler::bindCurrentThread(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < trackCount_; ++i) {
    if (tracks_[i].name == name) {
      tlStats = &tracks_[i].stats;
      return;
    }
  }
  if (trackCount_ < kMaxThreads) {
    tracks_[trackCount_].name.assign(name);
    tlStats = &tracks_[trackCount_].stats;
    ++trackCount_;
    return;
  }
  // Table full: overflow rows share the last slot rather than dropping data.
  tlStats = &tracks_[kMaxThreads - 1].stats;
}

std::int64_t Profiler::nowUs() { return tracer().nowUs(); }

void Profiler::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < trackCount_; ++i) {
    ThreadStats& t = tracks_[i].stats;
    t.workUs.store(0, std::memory_order_relaxed);
    t.queueWaitUs.store(0, std::memory_order_relaxed);
    t.lockWaitUs.store(0, std::memory_order_relaxed);
    t.idleUs.store(0, std::memory_order_relaxed);
    t.tasks.store(0, std::memory_order_relaxed);
    t.helped.store(0, std::memory_order_relaxed);
  }
  for (auto& family : shards_) {
    for (auto& s : family) {
      s.acquisitions.store(0, std::memory_order_relaxed);
      s.contended.store(0, std::memory_order_relaxed);
      s.lockWaitUs.store(0, std::memory_order_relaxed);
      s.hits.store(0, std::memory_order_relaxed);
      s.misses.store(0, std::memory_order_relaxed);
      s.probeSteps.store(0, std::memory_order_relaxed);
    }
  }
  for (auto& h : lockWait_) h.reset();
}

std::string Profiler::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\n  \"schema\": \"" << kProfileSchema << "\",\n";

  os << "  \"threads\": [";
  bool first = true;
  for (std::size_t i = 0; i < trackCount_; ++i) {
    const ThreadStats& t = tracks_[i].stats;
    os << (first ? "\n" : ",\n") << "    {\"name\": " << jsonQuote(tracks_[i].name)
       << ", \"tasks\": " << t.tasks.load(std::memory_order_relaxed)
       << ", \"work_us\": " << t.workUs.load(std::memory_order_relaxed)
       << ", \"queue_wait_us\": " << t.queueWaitUs.load(std::memory_order_relaxed)
       << ", \"lock_wait_us\": " << t.lockWaitUs.load(std::memory_order_relaxed)
       << ", \"idle_us\": " << t.idleUs.load(std::memory_order_relaxed)
       << ", \"helped\": " << t.helped.load(std::memory_order_relaxed) << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "],\n";

  os << "  \"shards\": {";
  bool firstFamily = true;
  for (std::size_t f = 0; f < kShardFamilies; ++f) {
    os << (firstFamily ? "\n" : ",\n") << "    \""
       << shardFamilyName(static_cast<ShardFamily>(f)) << "\": [";
    bool firstShard = true;
    for (std::size_t i = 0; i < kMaxShardsPerFamily; ++i) {
      const ShardStats& s = shards_[f][i];
      const std::int64_t acq = s.acquisitions.load(std::memory_order_relaxed);
      const std::int64_t hits = s.hits.load(std::memory_order_relaxed);
      const std::int64_t misses = s.misses.load(std::memory_order_relaxed);
      if (acq == 0 && hits == 0 && misses == 0) continue;  // quiet shard
      os << (firstShard ? "\n" : ",\n") << "      {\"index\": " << i
         << ", \"acquisitions\": " << acq
         << ", \"contended\": " << s.contended.load(std::memory_order_relaxed)
         << ", \"lock_wait_us\": " << s.lockWaitUs.load(std::memory_order_relaxed)
         << ", \"hits\": " << hits << ", \"misses\": " << misses
         << ", \"probe_steps\": " << s.probeSteps.load(std::memory_order_relaxed) << "}";
      firstShard = false;
    }
    os << (firstShard ? "" : "\n    ") << "]";
    firstFamily = false;
  }
  os << (firstFamily ? "" : "\n  ") << "},\n";

  os << "  \"lock_wait_us\": {";
  for (std::size_t f = 0; f < kShardFamilies; ++f) {
    os << (f == 0 ? "\n" : ",\n") << "    \"" << shardFamilyName(static_cast<ShardFamily>(f))
       << "\": ";
    appendHistogram(os, lockWait_[f]);
  }
  os << "\n  }\n}\n";
  return os.str();
}

Profiler& profiler() {
  static Profiler p;
  return p;
}

void ShardLock::lockContended(Profiler& p, ShardFamily family, std::size_t index) {
  ShardStats& s = p.shard(family, index);
  s.acquisitions.fetch_add(1, std::memory_order_relaxed);
  if (mu_.try_lock()) return;
  const std::int64_t t0 = Profiler::nowUs();
  mu_.lock();
  const std::int64_t waited = Profiler::nowUs() - t0;
  s.contended.fetch_add(1, std::memory_order_relaxed);
  s.lockWaitUs.fetch_add(waited, std::memory_order_relaxed);
  p.lockWaitHistogram(family).observe(waited);
  p.threadStats("main").lockWaitUs.fetch_add(waited, std::memory_order_relaxed);
}

}  // namespace ad::obs
