// Work-stealing thread pool for the batched analysis engine.
//
// One deque per worker plus a global injection queue: a worker pops its own
// deque LIFO (hot caches for nested fan-out), takes injected work FIFO, and
// steals FIFO from a victim chosen round-robin when both are empty. Tasks
// submitted from inside a worker land on that worker's own deque; tasks
// submitted from outside land on the injection queue.
//
// TaskGroup is the join primitive: wait() *helps* — it runs pending pool
// tasks on the calling thread until the group drains — so nested groups
// (a per-code task waiting on its per-array subtasks) never deadlock the
// pool, and a 1-thread pool still makes progress.
//
// Idle workers (and helping waiters) park on one condition variable and are
// woken by submit()/group-completion signaling — there is no polling loop.
// Accumulated park time is exported as ad.pool.idle_us.
//
// Observability: every executed task runs under an obs::Span ("pool.task")
// and bumps ad.pool.tasks / ad.pool.steals in the ad.metrics.v1 registry.
// When the contention profiler (obs/profiler.hpp) is enabled, each task
// additionally records its queue latency (submit -> start), run time,
// executing worker, and provenance (own deque / injected / stolen / helped)
// into the per-thread ad.profile.v1 tracks, and workers carry named trace
// tids so their activity lands on separate Perfetto tracks.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ad::obs {
class Counter;
}  // namespace ad::obs

namespace ad::support {

class ThreadPool {
 public:
  /// Trace tids of pool workers start here ("pool.w0" = 100, ...), leaving
  /// tid 0 to the main thread.
  static constexpr std::int64_t kTraceTidBase = 100;

  /// Spawns workers. The count is clamped to [1, hardwareConcurrency()]:
  /// analysis tasks are CPU-bound, so workers beyond the core count only add
  /// cache thrash and lock convoying without adding parallelism. Callers may
  /// therefore request any `threads` value (e.g. a --jobs flag) safely.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t threadCount() const noexcept { return count_; }

  /// std::thread::hardware_concurrency with a sane floor of 1.
  [[nodiscard]] static std::size_t hardwareConcurrency();

  /// Enqueues a task. Never blocks; safe from any thread, including workers.
  void submit(std::function<void()> task);

  /// Runs one pending task (any group) on the calling thread. Returns false
  /// when no task was available. This is the "help" primitive TaskGroup::wait
  /// uses so joins make progress even on saturated or single-thread pools.
  bool runOneTask();

  /// Parks the calling thread on the pool's idle signal until there is a
  /// task to help with, `done()` holds, or the pool stops. Used by
  /// TaskGroup::wait between help attempts; group completion must call
  /// notifyWaiters() so `done()` gets re-evaluated.
  void waitForWork(const std::function<bool()>& done);

  /// Wakes every parked worker and waiter (cheap; they re-check and re-park).
  void notifyWaiters();

 private:
  /// How a task reached its executor (recorded in the profiler's tracks).
  enum class TaskSource : std::uint8_t { kOwn, kInjected, kStolen };

  struct Item {
    std::function<void()> task;
    std::int64_t enqueueUs = 0;  ///< profiler clock at submit; 0 when disabled
  };
  struct Queue {
    std::mutex mu;
    std::deque<Item> tasks;
  };
  struct Taken {
    Item item;
    TaskSource source = TaskSource::kOwn;
    [[nodiscard]] explicit operator bool() const noexcept { return item.task != nullptr; }
  };

  void workerLoop(std::size_t index);
  /// Pops for executor `index` (own LIFO, injected FIFO, then steal). The
  /// injection queue is queues_[workers_.size()]; callers that are not pool
  /// workers use index == workers_.size() (injected first, then steal).
  [[nodiscard]] Taken take(std::size_t index);
  void runTask(Taken& taken, bool helped);

  std::size_t count_ = 0;  ///< fixed before any worker spawns; workers_ itself
                           ///< grows while they run, so they must never size() it
  std::vector<std::unique_ptr<Queue>> queues_;  ///< count_ + 1 entries
  std::vector<std::thread> workers_;
  std::mutex idleMu_;
  std::condition_variable idleCv_;
  std::atomic<std::int64_t> pending_{0};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> stealSeed_{0};
  // Hot-path instrument references resolved once: the registry lookup takes
  // a mutex, which per-task lookups would turn into a contention point.
  obs::Counter* tasksCounter_ = nullptr;
  obs::Counter* stealsCounter_ = nullptr;
  obs::Counter* idleCounter_ = nullptr;
};

/// Completion tracking for a batch of tasks on one pool.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(&pool) {}

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;
  /// wait() must have drained the group before destruction.
  ~TaskGroup();

  /// Submits `fn` as a tracked task. Exceptions thrown by `fn` are captured;
  /// the first one is rethrown from wait().
  void run(std::function<void()> fn);

  /// Blocks until every task submitted through run() has finished, executing
  /// pending pool tasks on the calling thread while it waits. Rethrows the
  /// first captured exception.
  void wait();

 private:
  ThreadPool* pool_;
  std::atomic<std::int64_t> pending_{0};
  std::mutex mu_;  ///< guards error_
  std::exception_ptr error_;
};

}  // namespace ad::support
