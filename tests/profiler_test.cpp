// Tests for the task-level contention profiler (src/obs/profiler.hpp): the
// disabled path must record nothing, enable() must establish the "main" row,
// ShardLock must attribute contended acquisitions to the right (family,
// shard) cell, pool tasks must land in per-thread rows, the ad.profile.v1
// summary must keep its schema, and spans must stay balanced when fault
// injection unwinds the pipeline mid-flight.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "codes/suite.hpp"
#include "driver/pipeline.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "support/fault.hpp"
#include "support/thread_pool.hpp"
#include "symbolic/intern.hpp"

namespace ad::obs {
namespace {

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    profiler().disable();
    profiler().reset();
    tracer().disable();
    tracer().clear();
    ASSERT_TRUE(support::FaultInjector::global().configure("").isOk());
  }
  void TearDown() override {
    profiler().disable();
    profiler().reset();
    tracer().disable();
    tracer().clear();
    support::FaultInjector::global().clear();
  }
};

TEST_F(ProfilerTest, DisabledShardLockRecordsNothing) {
  std::mutex mu;
  {
    ShardLock lock(mu, ShardFamily::kExprIntern, 3);
    EXPECT_FALSE(mu.try_lock());  // the guard does hold the mutex
  }
  const ShardStats& s = profiler().shard(ShardFamily::kExprIntern, 3);
  EXPECT_EQ(s.acquisitions.load(), 0);
  EXPECT_EQ(s.contended.load(), 0);
  EXPECT_EQ(profiler().lockWaitHistogram(ShardFamily::kExprIntern).count(), 0);
}

TEST_F(ProfilerTest, EnableBindsMainRow) {
  profiler().enable();
  const std::string summary = profiler().summary();
  EXPECT_NE(summary.find("\"name\": \"main\""), std::string::npos) << summary;
}

TEST_F(ProfilerTest, ShardLockAttributesContention) {
  profiler().enable();
  std::mutex mu;
  std::atomic<bool> holderIn{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    ShardLock lock(mu, ShardFamily::kMemoContext, 5);
    holderIn.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!holderIn.load()) std::this_thread::yield();
  const ShardStats& s = profiler().shard(ShardFamily::kMemoContext, 5);
  std::thread blocked([&] {
    // Arrives while `holder` owns the shard: try_lock fails, the timed
    // fallback path records the contended acquisition.
    ShardLock lock(mu, ShardFamily::kMemoContext, 5);
  });
  // The release countdown starts only once `blocked` has counted its
  // acquisition, which it does right before its try_lock.
  while (s.acquisitions.load() < 2) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  release.store(true);
  blocked.join();
  holder.join();

  EXPECT_EQ(s.acquisitions.load(), 2);
  EXPECT_GE(s.contended.load(), 1);
  EXPECT_GE(s.lockWaitUs.load(), 0);
  EXPECT_GE(profiler().lockWaitHistogram(ShardFamily::kMemoContext).count(), 1);
  const std::string summary = profiler().summary();
  EXPECT_NE(summary.find("\"memo.context\""), std::string::npos);
}

TEST_F(ProfilerTest, PoolTasksLandInWorkerRows) {
  profiler().enable();
  {
    support::ThreadPool pool(2);
    support::TaskGroup group(pool);
    std::atomic<int> runs{0};
    for (int i = 0; i < 64; ++i) {
      group.run([&runs] { runs.fetch_add(1, std::memory_order_relaxed); });
    }
    group.wait();
    EXPECT_EQ(runs.load(), 64);
  }
  const std::string summary = profiler().summary();
  EXPECT_NE(summary.find("\"name\": \"pool.w0\""), std::string::npos) << summary;
  // All 64 tasks must be attributed to some row (worker or helping main).
  std::int64_t tasks = 0;
  for (std::size_t pos = summary.find("\"tasks\": "); pos != std::string::npos;
       pos = summary.find("\"tasks\": ", pos + 1)) {
    tasks += std::strtoll(summary.c_str() + pos + 9, nullptr, 10);
  }
  EXPECT_EQ(tasks, 64);
}

TEST_F(ProfilerTest, SummaryKeepsSchema) {
  profiler().enable();
  const std::string summary = profiler().summary();
  for (const char* needle :
       {"\"schema\": \"ad.profile.v1\"", "\"threads\":", "\"shards\":", "\"lock_wait_us\":",
        "\"intern.expr\"", "\"memo.context\"", "\"memo.registry\"", "\"loc.phase_array\"",
        "\"queue_wait_us\"", "\"idle_us\"", "\"helped\""}) {
    EXPECT_NE(summary.find(needle), std::string::npos) << "summary lacks " << needle;
  }
  // Deleted columns: no thread waits on a barrier, and the pool has one queue.
  for (const char* gone : {"\"barrier_wait_us\"", "\"steals\""}) {
    EXPECT_EQ(summary.find(gone), std::string::npos) << "summary still has " << gone;
  }
}

TEST_F(ProfilerTest, ResetZeroesRowsAndShards) {
  profiler().enable();
  profiler().threadStats("").tasks.fetch_add(7, std::memory_order_relaxed);
  profiler().shard(ShardFamily::kExprIntern, 1).acquisitions.fetch_add(3,
                                                                       std::memory_order_relaxed);
  profiler().shard(ShardFamily::kExprIntern, 1).probeSteps.fetch_add(9,
                                                                     std::memory_order_relaxed);
  profiler().lockWaitHistogram(ShardFamily::kExprIntern).observe(10);
  profiler().reset();
  EXPECT_EQ(profiler().threadStats("").tasks.load(), 0);
  EXPECT_EQ(profiler().shard(ShardFamily::kExprIntern, 1).acquisitions.load(), 0);
  EXPECT_EQ(profiler().shard(ShardFamily::kExprIntern, 1).probeSteps.load(), 0);
  EXPECT_EQ(profiler().lockWaitHistogram(ShardFamily::kExprIntern).count(), 0);
}

// Probe-length accounting: interning under an enabled profiler accumulates
// probe_steps for the touched shards, the shard rows expose them in the
// summary, and the mean probe length stays near 1 with healthy hashes.
TEST_F(ProfilerTest, InternProbeStepsAttributed) {
  sym::ExprIntern::global().clear();
  profiler().enable();
  sym::SymbolTable st;
  const auto p = st.parameter("P");
  std::int64_t expectedProbes = 0;
  for (int k = 0; k < 64; ++k) {
    (void)sym::ExprIntern::global().intern(sym::Expr::symbol(p) * sym::Expr::constant(k));
    (void)sym::ExprIntern::global().intern(sym::Expr::symbol(p) * sym::Expr::constant(k));
    expectedProbes += 2;
  }
  std::int64_t steps = 0;
  std::int64_t probes = 0;
  for (std::size_t i = 0; i < kMaxShardsPerFamily; ++i) {
    const ShardStats& s = profiler().shard(ShardFamily::kExprIntern, i);
    steps += s.probeSteps.load(std::memory_order_relaxed);
    probes += s.hits.load(std::memory_order_relaxed) +
              s.misses.load(std::memory_order_relaxed);
  }
  EXPECT_EQ(probes, expectedProbes);
  EXPECT_GE(steps, probes);  // every probe inspects at least one slot
  // Mean probe length near 1: the cached-hash open addressing barely chains.
  EXPECT_LT(static_cast<double>(steps), 2.0 * static_cast<double>(probes));
  EXPECT_NE(profiler().summary().find("\"probe_steps\""), std::string::npos);
  sym::ExprIntern::global().clear();
}

// Satellite guarantee: a fault that unwinds a pipeline task mid-analysis must
// not leave half-open spans — Span is RAII, so every recorded event carries a
// complete (ts, dur) pair and every batch item still closes its root span.
TEST_F(ProfilerTest, SpansStayBalancedUnderFaultInjection) {
  ASSERT_TRUE(support::FaultInjector::global().configure("pool.task@2").isOk());
  tracer().enable();
  profiler().enable();
  sym::ProofMemoEnabledGuard memoOn(true);

  const auto& suite = codes::benchmarkSuite();
  std::vector<ir::Program> programs;
  std::vector<driver::BatchItem> batch;
  programs.reserve(suite.size());
  for (const auto& info : suite) programs.push_back(info.build());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    driver::BatchItem item;
    item.program = &programs[i];
    item.label = suite[i].name;
    item.config.params = codes::bindParams(programs[i], suite[i].smallParams);
    item.config.processors = 4;
    item.config.simulatePlan = false;
    item.config.simulateBaseline = false;
    batch.push_back(std::move(item));
  }
  const auto results = driver::analyzeBatch(batch, 2);
  tracer().disable();
  profiler().disable();

  std::size_t failed = 0;
  for (const auto& res : results) failed += res.has_value() ? 0 : 1;
  EXPECT_EQ(failed, 1u) << "exactly the poisoned task should fail";

  const auto events = tracer().snapshot();
  ASSERT_FALSE(events.empty());
  for (const auto& e : events) {
    EXPECT_GE(e.ts, 0) << e.name;
    EXPECT_GE(e.dur, 0) << e.name;
    EXPECT_FALSE(e.name.empty());
  }
  // Every item whose analysis started closed its root span. The pool.task
  // fault fires before the task body, so the killed item either never opened
  // its span (item task killed) or opened and closed it (a nested
  // per-(phase,array) subtask was the one killed) — never half-open.
  const auto stats = tracer().statsByName();
  const auto it = stats.find("pipeline.analyze_and_simulate");
  ASSERT_NE(it, stats.end());
  EXPECT_GE(it->second.count, batch.size() - 1);
  EXPECT_LE(it->second.count, batch.size());
}

}  // namespace
}  // namespace ad::obs
