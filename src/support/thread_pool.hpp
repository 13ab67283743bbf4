// Work-stealing thread pool for the batched analysis engine.
//
// One deque per worker plus a global injection queue: a worker pops its own
// deque LIFO (hot caches for nested fan-out), takes injected work FIFO, and
// steals FIFO from a victim chosen round-robin when both are empty. Tasks
// submitted from inside a worker land on that worker's own deque; tasks
// submitted from outside land on the injection queue.
//
// TaskGroup is the join primitive, and its joins are scoped: wait() runs
// queued tasks *of its own group* on the calling thread, then parks until
// the group drains. It never picks up another group's task, so a thread
// nests at most one task per level of group nesting (batch item -> array ->
// phase node), whatever the batch size, and every task's span covers only
// its own work. Nested groups still cannot deadlock: a waiter can always run
// its own queued tasks itself, and a task that is already running elsewhere
// finishes without waiting on the waiter's ancestors. A 1-thread pool makes
// progress the same way.
//
// Idle workers park on the pool's condition variable and are woken by
// submit(); a join parks on its group's and is woken when the group drains.
// There is no polling loop. Both park times are exported as ad.pool.idle_us.
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

  /// Enqueues a task. Never blocks; safe from any thread, including workers.
  void submit(std::function<void()> task);

 private:
  friend class TaskGroup;

  /// How a task reached its executor (recorded in the profiler's tracks).
  enum class TaskSource : std::uint8_t { kOwn, kInjected, kStolen };

  struct Item {
    std::function<void()> task;
    std::int64_t enqueueUs = 0;  ///< profiler clock at submit; 0 when disabled
    const TaskGroup* group = nullptr;  ///< owning TaskGroup; null for plain submit()
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

  void enqueue(std::function<void()> task, const TaskGroup* group);
  void workerLoop(std::size_t index);
  /// Pops for executor `index` (own LIFO, injected FIFO, then steal). The
  /// injection queue is queues_[count_]; callers that are not pool workers
  /// use index == count_ (injected first, then steal). With `group` set only
  /// that group's items qualify, taken newest first from every queue: a
  /// join's own tasks are the last ones its thread submitted.
  [[nodiscard]] Taken take(std::size_t index, const TaskGroup* group = nullptr);
  void runTask(Taken& taken, bool helped);
  /// Adds parked microseconds to ad.pool.idle_us and the profiler's row.
  void recordIdle(std::int64_t us);

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
