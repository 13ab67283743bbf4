#include "support/thread_pool.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "support/budget.hpp"
#include "support/fault.hpp"

namespace ad::support {

namespace {

// Which pool (if any) the current thread is a worker of, and its index.
// Lets submit() route tasks from workers onto their own deque and take()
// start stealing from the right place; distinguishes nested/other pools.
thread_local const ThreadPool* tlPool = nullptr;
thread_local std::size_t tlWorker = 0;

}  // namespace

std::size_t ThreadPool::hardwareConcurrency() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t requested = threads == 0 ? 1 : threads;
  const std::size_t n = std::min(requested, hardwareConcurrency());
  count_ = n;
  queues_.reserve(n + 1);
  for (std::size_t i = 0; i < n + 1; ++i) queues_.push_back(std::make_unique<Queue>());
  tasksCounter_ = &obs::metrics().counter("ad.pool.tasks");
  stealsCounter_ = &obs::metrics().counter("ad.pool.steals");
  idleCounter_ = &obs::metrics().counter("ad.pool.idle_us");
  obs::metrics().gauge("ad.pool.threads").set(static_cast<std::int64_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    obs::tracer().nameThread(kTraceTidBase + static_cast<std::int64_t>(i),
                             "pool.w" + std::to_string(i));
  }
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { workerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  // Empty critical section: see enqueue().
  { std::lock_guard<std::mutex> lock(idleMu_); }
  idleCv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) { enqueue(std::move(task), nullptr); }

void ThreadPool::enqueue(std::function<void()> task, const TaskGroup* group) {
  // The submitter's budget and degradation ledger follow the task to
  // whichever worker runs it: a per-code budget (and its cancellation token)
  // bounds that code's per-array subtasks regardless of where they execute.
  if (const RobustnessContext ctx = RobustnessContext::capture();
      ctx.budget != nullptr || ctx.report != nullptr) {
    task = [ctx, inner = std::move(task)] {
      RobustnessContextScope scope(ctx);
      inner();
    };
  }
  Item item{std::move(task), obs::profiler().enabled() ? obs::Profiler::nowUs() : 0, group};
  const std::size_t slot =
      (tlPool == this) ? tlWorker : count_;  // own deque or injection queue
  {
    std::lock_guard<std::mutex> lock(queues_[slot]->mu);
    queues_[slot]->tasks.push_back(std::move(item));
  }
  pending_.fetch_add(1, std::memory_order_release);
  // The empty critical section orders this notification after any idle
  // worker's predicate check: a worker between "saw pending_ == 0" and
  // "parked" holds idleMu_, so we cannot signal into that window and lose
  // the wakeup.
  { std::lock_guard<std::mutex> lock(idleMu_); }
  idleCv_.notify_one();
}

ThreadPool::Taken ThreadPool::take(std::size_t index, const TaskGroup* group) {
  // Removes the newest or oldest item of `q` that `group` may run (any item
  // when unscoped, so the scan stops at the first slot it looks at).
  const auto pop = [group](Queue& q, bool newest, TaskSource source) -> Taken {
    std::lock_guard<std::mutex> lock(q.mu);
    std::deque<Item>& d = q.tasks;
    const std::size_t n = d.size();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t pos = newest ? n - 1 - k : k;
      if (group != nullptr && d[pos].group != group) continue;
      Taken t{std::move(d[pos]), source};
      d.erase(d.begin() + static_cast<std::ptrdiff_t>(pos));
      return t;
    }
    return Taken{};
  };
  const bool scoped = group != nullptr;
  // Own deque, newest first: nested fan-out keeps its working set hot.
  if (index < count_) {
    if (Taken t = pop(*queues_[index], /*newest=*/true, TaskSource::kOwn)) return t;
  }
  // Injected work, oldest first.
  if (Taken t = pop(*queues_[count_], scoped, TaskSource::kInjected)) return t;
  // Steal from a victim, oldest first (the opposite end from the owner's
  // LIFO pops, minimizing contention and grabbing the largest subtrees).
  const std::size_t n = count_;
  const std::size_t start = stealSeed_.fetch_add(1, std::memory_order_relaxed) % (n == 0 ? 1 : n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t victim = (start + k) % n;
    if (victim == index) continue;
    if (Taken t = pop(*queues_[victim], scoped, TaskSource::kStolen)) {
      stealsCounter_->add(1);
      return t;
    }
  }
  return Taken{};
}

void ThreadPool::runTask(Taken& taken, bool helped) {
  pending_.fetch_sub(1, std::memory_order_release);
  obs::Span span("pool.task", "pool");
  tasksCounter_->add(1);
  obs::Profiler& prof = obs::profiler();
  if (!prof.enabled()) {
    taken.item.task();
    return;
  }
  // Queue latency = submit -> start; run time = the body. The executing
  // thread's track is resolved once per task (thread-local cache inside).
  obs::ThreadStats& stats = prof.threadStats("main");
  const std::int64_t start = obs::Profiler::nowUs();
  if (taken.item.enqueueUs > 0) {
    stats.queueWaitUs.fetch_add(start - taken.item.enqueueUs, std::memory_order_relaxed);
  }
  taken.item.task();
  stats.workUs.fetch_add(obs::Profiler::nowUs() - start, std::memory_order_relaxed);
  stats.tasks.fetch_add(1, std::memory_order_relaxed);
  if (taken.source == TaskSource::kStolen) stats.steals.fetch_add(1, std::memory_order_relaxed);
  if (helped) stats.helped.fetch_add(1, std::memory_order_relaxed);
}

void ThreadPool::recordIdle(std::int64_t us) {
  idleCounter_->add(us);
  if (obs::profiler().enabled()) {
    obs::profiler().threadStats("main").idleUs.fetch_add(us, std::memory_order_relaxed);
  }
}

void ThreadPool::workerLoop(std::size_t index) {
  tlPool = this;
  tlWorker = index;
  obs::Tracer::setCurrentThreadId(kTraceTidBase + static_cast<std::int64_t>(index));
  obs::profiler().bindCurrentThread("pool.w" + std::to_string(index));
  while (true) {
    if (Taken taken = take(index)) {
      runTask(taken, /*helped=*/false);
      continue;
    }
    std::unique_lock<std::mutex> lock(idleMu_);
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      break;
    }
    if (pending_.load(std::memory_order_acquire) > 0) continue;  // re-scan, raced a submit
    const std::int64_t t0 = obs::Profiler::nowUs();
    idleCv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    recordIdle(obs::Profiler::nowUs() - t0);
  }
  tlPool = nullptr;
  obs::Tracer::setCurrentThreadId(0);
}

TaskGroup::~TaskGroup() {
  // Best effort: a group abandoned mid-flight (e.g. stack unwinding after an
  // unrelated exception) must still not leave tasks referencing dead frames.
  // Even a drained group waits, so the last task has released mu_.
  try {
    wait();
  } catch (...) {  // NOLINT(bugprone-empty-catch): destructor must not throw
  }
}

void TaskGroup::run(std::function<void()> fn) {
  pending_.fetch_add(1, std::memory_order_acq_rel);
  queued_.fetch_add(1, std::memory_order_acq_rel);
  pool_->enqueue(
      [this, fn = std::move(fn)] {
        queued_.fetch_sub(1, std::memory_order_acq_rel);
        std::exception_ptr err;
        try {
          if (AD_FAULT_POINT("pool.task")) {
            throw AnalysisError("injected fault: pool task abandoned (pool.task)");
          }
          fn();
        } catch (...) {
          err = std::current_exception();
        }
        // The last decrement happens under mu_, and wait() takes mu_ before
        // it returns: the group cannot be destroyed while this thread still
        // holds the lock, and nothing here touches the group after that.
        std::lock_guard<std::mutex> lock(mu_);
        if (err && !error_) error_ = err;
        if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) drained_.notify_all();
      },
      this);
}

void TaskGroup::wait() {
  // Help with our own queued tasks only; take() never hands out another
  // group's. It can miss one that another thread has taken but not yet
  // started, which is then running elsewhere like the rest.
  const std::size_t index = (tlPool == pool_) ? tlWorker : pool_->count_;
  while (queued_.load(std::memory_order_acquire) > 0) {
    ThreadPool::Taken taken = pool_->take(index, this);
    if (!taken) break;
    pool_->runTask(taken, /*helped=*/true);
  }
  // The remaining tasks are running on other threads: park until the last
  // of them finishes.
  std::unique_lock<std::mutex> lock(mu_);
  if (pending_.load(std::memory_order_acquire) > 0) {
    const std::int64_t t0 = obs::Profiler::nowUs();
    drained_.wait(lock, [this] { return pending_.load(std::memory_order_acquire) == 0; });
    pool_->recordIdle(obs::Profiler::nowUs() - t0);
  }
  const std::exception_ptr err = std::exchange(error_, nullptr);
  lock.unlock();
  if (err) std::rethrow_exception(err);
}

}  // namespace ad::support
