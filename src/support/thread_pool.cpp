#include "support/thread_pool.hpp"

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>

#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "support/budget.hpp"
#include "support/fault.hpp"

namespace ad::support {

std::size_t ThreadPool::hardwareConcurrency() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t requested = threads == 0 ? 1 : threads;
  const std::size_t n = std::min(requested, hardwareConcurrency());
  count_ = n;
  tasksCounter_ = &obs::metrics().counter("ad.pool.tasks");
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
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
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
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(item));
  }
  cv_.notify_one();
}

ThreadPool::Item ThreadPool::takeNewest(const TaskGroup* group) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = tasks_.rbegin(); it != tasks_.rend(); ++it) {
    if (it->group != group) continue;
    Item item = std::move(*it);
    tasks_.erase(std::next(it).base());
    return item;
  }
  return Item{};
}

void ThreadPool::runTask(Item& item, bool helped) {
  obs::Span span("pool.task", "pool");
  tasksCounter_->add(1);
  obs::Profiler& prof = obs::profiler();
  if (!prof.enabled()) {
    item.task();
    return;
  }
  // Queue latency = submit -> start; run time = the body. The executing
  // thread's track is resolved once per task (thread-local cache inside).
  obs::ThreadStats& stats = prof.threadStats("main");
  const std::int64_t start = obs::Profiler::nowUs();
  if (item.enqueueUs > 0) {
    stats.queueWaitUs.fetch_add(start - item.enqueueUs, std::memory_order_relaxed);
  }
  item.task();
  stats.workUs.fetch_add(obs::Profiler::nowUs() - start, std::memory_order_relaxed);
  stats.tasks.fetch_add(1, std::memory_order_relaxed);
  if (helped) stats.helped.fetch_add(1, std::memory_order_relaxed);
}

void ThreadPool::recordIdle(std::int64_t us) {
  idleCounter_->add(us);
  if (obs::profiler().enabled()) {
    obs::profiler().threadStats("main").idleUs.fetch_add(us, std::memory_order_relaxed);
  }
}

void ThreadPool::workerLoop(std::size_t index) {
  obs::Tracer::setCurrentThreadId(kTraceTidBase + static_cast<std::int64_t>(index));
  obs::profiler().bindCurrentThread("pool.w" + std::to_string(index));
  while (true) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (tasks_.empty() && !stop_) {
        const std::int64_t t0 = obs::Profiler::nowUs();
        cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
        recordIdle(obs::Profiler::nowUs() - t0);
      }
      if (tasks_.empty()) break;  // stopping, and the queue has drained
      item = std::move(tasks_.front());
      tasks_.pop_front();
    }
    runTask(item, /*helped=*/false);
  }
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
  // Help with our own queued tasks only, newest first: they are the last
  // ones this thread submitted. This can miss one that a worker has taken but
  // not yet started, which is then running elsewhere like the rest.
  while (queued_.load(std::memory_order_acquire) > 0) {
    ThreadPool::Item item = pool_->takeNewest(this);
    if (!item.task) break;
    pool_->runTask(item, /*helped=*/true);
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
