// Shared-queue pool semantics: every submitted task runs exactly once,
// nested groups drain without deadlock (wait() helps with its own group, and
// only with it), a worker's fan-out runs on the other idle workers,
// exceptions surface at the join, and a 1-thread pool still makes progress.
// Runs under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "obs/obs.hpp"
#include "support/thread_pool.hpp"

namespace ad {
namespace {

TEST(ThreadPool, EveryTaskRunsExactlyOnce) {
  support::ThreadPool pool(4);
  support::TaskGroup group(pool);
  std::atomic<int> runs{0};
  constexpr int kTasks = 500;
  for (int i = 0; i < kTasks; ++i) {
    group.run([&runs] { runs.fetch_add(1, std::memory_order_relaxed); });
  }
  group.wait();
  EXPECT_EQ(kTasks, runs.load());
}

TEST(ThreadPool, NestedGroupsDrainWithoutDeadlock) {
  support::ThreadPool pool(2);
  support::TaskGroup outer(pool);
  std::atomic<int> runs{0};
  for (int i = 0; i < 8; ++i) {
    outer.run([&pool, &runs] {
      // A per-code task fanning out per-array subtasks onto the same pool:
      // the inner wait() must help-execute rather than block a worker.
      support::TaskGroup inner(pool);
      for (int j = 0; j < 8; ++j) {
        inner.run([&runs] { runs.fetch_add(1, std::memory_order_relaxed); });
      }
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(64, runs.load());
}

TEST(ThreadPool, IdleWorkersRunAWorkersFanOut) {
  // A task running on a worker fans out one subtask per pool thread, and
  // every subtask waits until all of them have started: the rendezvous is
  // reached only if the other idle workers pick up this worker's subtasks
  // while its own join runs one of them. The waits share one deadline, so a
  // pool that kept a worker's subtasks to itself fails here within seconds
  // instead of hanging.
  support::ThreadPool pool(4);
  const std::size_t n = pool.threadCount();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t started = 0;
  std::size_t timedOut = 0;
  std::atomic<bool> done{false};
  pool.submit([&] {
    {
      support::TaskGroup fanOut(pool);
      for (std::size_t i = 0; i < n; ++i) {
        fanOut.run([&] {
          std::unique_lock<std::mutex> lock(mu);
          ++started;
          cv.notify_all();
          if (!cv.wait_until(lock, deadline, [&] { return started == n; })) ++timedOut;
        });
      }
      fanOut.wait();
    }
    done.store(true);
  });
  while (!done.load()) std::this_thread::yield();
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(0u, timedOut);
  EXPECT_EQ(n, started);
}

TEST(ThreadPool, SingleThreadPoolMakesProgress) {
  support::ThreadPool pool(1);
  support::TaskGroup outer(pool);
  std::atomic<int> runs{0};
  outer.run([&pool, &runs] {
    support::TaskGroup inner(pool);
    for (int j = 0; j < 16; ++j) {
      inner.run([&runs] { runs.fetch_add(1, std::memory_order_relaxed); });
    }
    inner.wait();
  });
  outer.wait();
  EXPECT_EQ(16, runs.load());
}

TEST(ThreadPool, FirstExceptionRethrownAtJoin) {
  support::ThreadPool pool(2);
  support::TaskGroup group(pool);
  std::atomic<int> survivors{0};
  for (int i = 0; i < 10; ++i) {
    group.run([i, &survivors] {
      if (i == 3) throw std::runtime_error("task failed");
      survivors.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  EXPECT_EQ(9, survivors.load());

  // The pool stays usable after a failed group.
  support::TaskGroup again(pool);
  std::atomic<bool> ran{false};
  again.run([&ran] { ran.store(true, std::memory_order_relaxed); });
  again.wait();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, RepeatedQuiesceAndResubmitStaysLive) {
  // Workers park on the idle condition variable between bursts; a lost
  // wakeup would deadlock one of these cycles (each group must fully drain
  // before the next begins).
  support::ThreadPool pool(2);
  std::atomic<int> runs{0};
  for (int cycle = 0; cycle < 100; ++cycle) {
    support::TaskGroup group(pool);
    group.run([&runs] { runs.fetch_add(1, std::memory_order_relaxed); });
    group.wait();
  }
  EXPECT_EQ(100, runs.load());
}

TEST(ThreadPool, IdleTimeIsAccounted) {
  obs::Counter& idle = obs::metrics().counter("ad.pool.idle_us");
  const std::int64_t before = idle.value();
  {
    support::ThreadPool pool(2);
    // Quiet pool: idle workers park, and the parked microseconds land in
    // ad.pool.idle_us on wakeup (here: the submit below, or shutdown).
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    support::TaskGroup group(pool);
    std::atomic<bool> ran{false};
    group.run([&ran] { ran.store(true, std::memory_order_relaxed); });
    group.wait();
    EXPECT_TRUE(ran.load());
  }
  EXPECT_GT(idle.value(), before);
}

TEST(ThreadPool, WaitOnAnEmptyGroupReturns) {
  support::ThreadPool pool(2);
  support::TaskGroup group(pool);
  group.wait();  // nothing submitted: returns without parking
  // The pool clamps its worker count to [1, hardwareConcurrency()].
  EXPECT_GE(pool.threadCount(), 1u);
  EXPECT_LE(pool.threadCount(), 2u);
  EXPECT_GE(support::ThreadPool::hardwareConcurrency(), 1u);
}

TEST(ThreadPool, WaitRunsOnlyItsOwnGroup) {
  // One worker, held busy, so every later task stays queued until a join
  // picks it up. The unrelated task is queued *ahead* of the waited group's:
  // a join that helped with any task would run it on this thread.
  support::ThreadPool pool(1);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  support::TaskGroup blocker(pool);
  blocker.run([&] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();

  std::atomic<bool> unrelatedRan{false};
  support::TaskGroup unrelated(pool);
  unrelated.run([&] { unrelatedRan.store(true); });

  const std::thread::id self = std::this_thread::get_id();
  std::thread::id ownRanOn;
  support::TaskGroup own(pool);
  own.run([&] { ownRanOn = std::this_thread::get_id(); });
  own.wait();
  EXPECT_EQ(self, ownRanOn);           // the join helped with its own task...
  EXPECT_FALSE(unrelatedRan.load());  // ...and left the other group's queued

  release.store(true);
  blocker.wait();
  unrelated.wait();
  EXPECT_TRUE(unrelatedRan.load());
}

}  // namespace
}  // namespace ad
