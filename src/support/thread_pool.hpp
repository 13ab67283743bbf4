// Thread pool for the batched analysis engine.
//
// One task deque behind one mutex and one condition variable. Workers take
// the oldest item; tasks submitted from anywhere (workers included) go to the
// back. Idle workers park on the same condition variable and submit() wakes
// one of them, so a worker's nested fan-out is picked up by whichever workers
// are idle. There is no polling loop.
//
// TaskGroup is the join primitive, and its joins are scoped: wait() runs
// queued tasks *of its own group* on the calling thread, newest first, then
// parks until the group drains. It never picks up another group's task, so a
// thread nests at most one task per level of group nesting (batch item ->
// array -> phase node), whatever the batch size, and every task's span covers
// only its own work. Nested groups still cannot deadlock: a waiter can always
// run its own queued tasks itself, and a task that is already running
// elsewhere finishes without waiting on the waiter's ancestors. A 1-thread
// pool makes progress the same way.
//
// A join parks on its group's condition variable and is woken when the group
// drains. Both park times (idle workers and joins) are exported as
// ad.pool.idle_us.
//
// Observability: every executed task runs under an obs::Span ("pool.task")
// and bumps ad.pool.tasks in the ad.metrics.v1 registry. When the contention
// profiler (obs/profiler.hpp) is enabled, each task additionally records its
// queue latency (submit -> start), run time, executing thread and whether a
// join helped with it into the per-thread ad.profile.v1 tracks, and workers
// carry named trace tids so their activity lands on separate Perfetto tracks.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ad::obs {
class Counter;
}  // namespace ad::obs

namespace ad::support {

class TaskGroup;

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

  /// Enqueues a task. Never blocks on a task; safe from any thread,
  /// including workers.
  void submit(std::function<void()> task);

 private:
  friend class TaskGroup;

  struct Item {
    std::function<void()> task;
    std::int64_t enqueueUs = 0;  ///< profiler clock at submit; 0 when disabled
    const TaskGroup* group = nullptr;  ///< owning TaskGroup; null for plain submit()
  };

  void enqueue(std::function<void()> task, const TaskGroup* group);
  void workerLoop(std::size_t index);
  /// Removes the newest queued item of `group`; an empty Item when none is
  /// queued.
  [[nodiscard]] Item takeNewest(const TaskGroup* group);
  void runTask(Item& item, bool helped);
  /// Adds parked microseconds to ad.pool.idle_us and the profiler's row.
  void recordIdle(std::int64_t us);

  std::size_t count_ = 0;  ///< fixed before any worker spawns; workers_ itself
                           ///< grows while they run, so they must never size() it
  std::vector<std::thread> workers_;
  std::mutex mu_;  ///< guards tasks_ and stop_
  std::condition_variable cv_;  ///< signalled on submit and on shutdown
  std::deque<Item> tasks_;
  bool stop_ = false;
  // Hot-path instrument references resolved once: the registry lookup takes
  // a mutex, which per-task lookups would turn into a contention point.
  obs::Counter* tasksCounter_ = nullptr;
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

  /// Blocks until every task submitted through run() has finished, running
  /// this group's queued tasks on the calling thread while it waits (never
  /// another group's). Rethrows the first captured exception.
  void wait();

 private:
  ThreadPool* pool_;
  std::atomic<std::int64_t> pending_{0};  ///< submitted, not yet finished
  std::atomic<std::int64_t> queued_{0};   ///< submitted, not yet started
  std::mutex mu_;  ///< guards error_; orders the last finish() before wait() returns
  std::condition_variable drained_;
  std::exception_ptr error_;
};

}  // namespace ad::support
