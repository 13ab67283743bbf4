// Analysis budgets and the graceful-degradation ledger.
//
// The prover (symbolic/ranges.*), the Diophantine enumerator, and the ILP
// search are all worst-case expensive; under adversarial inputs they must
// *degrade*, never hang or crash. ad::support::Budget bounds one analysis
// run: a prover step count, a recursion-depth cap, a wall-clock deadline, and
// a cancellation token. Exhaustion is not an error — the prover answers
// Unknown, and every downstream consumer maps Unknown to its provably
// conservative choice (edge label C, no privatization, mandatory halo, BLOCK
// fallback plan). Each such downgrade is recorded in the current
// DegradationReport and on the ad.metrics.v1 `ad.degrade.*` counters, so a
// degraded run is visible, attributable, and still sound.
//
// Plumbing: the active Budget and DegradationReport are thread-local,
// installed by the RAII scopes below. ThreadPool::submit captures the
// submitting thread's pair and re-installs it in whichever worker runs the
// task, so budgets (and the cancellation token they carry) follow the work
// across the pool — a per-code budget bounds that code's per-array subtasks
// too.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "support/status.hpp"

namespace ad::support {

/// Soft limits for one analysis run. Zero always means "unlimited".
struct BudgetLimits {
  std::int64_t proverSteps = 0;  ///< max prover step() calls
  int proverDepth = 0;           ///< recursion-depth cap (0 = library default)
  std::int64_t deadlineMs = 0;   ///< wall-clock, measured from Budget creation

  [[nodiscard]] bool unlimited() const noexcept {
    return proverSteps == 0 && proverDepth == 0 && deadlineMs == 0;
  }
};

/// Shared cancellation token: cooperative, observed by Budget::step().
using CancelToken = std::shared_ptr<std::atomic<bool>>;

/// Why a budget stopped admitting work.
enum class BudgetStop { kNone, kSteps, kDeadline, kCancelled, kFault };

[[nodiscard]] const char* budgetStopName(BudgetStop s);

/// One analysis run's budget. Thread-safe: the batched engine fans a code's
/// per-array tasks across workers that all charge the same budget.
class Budget {
 public:
  explicit Budget(const BudgetLimits& limits, CancelToken cancel = nullptr);

  Budget(const Budget&) = delete;
  Budget& operator=(const Budget&) = delete;

  /// Charges one prover step. Returns false once the budget is exhausted
  /// (step count, deadline, or cancellation) — the caller answers Unknown.
  /// Cancellation is polled on *every* step (one extra relaxed load), so a
  /// cancelled prover stops within one step of the token firing — the bound
  /// the service's in-flight cancellation relies on. The deadline (a clock
  /// read) is still polled every 64 steps.
  [[nodiscard]] bool step() noexcept;

  /// Marks the budget exhausted (first cause wins). Used by step() and by
  /// fault injection ("prover timed out").
  void exhaust(BudgetStop cause) noexcept;

  [[nodiscard]] bool exhausted() const noexcept {
    return stop_.load(std::memory_order_relaxed) != BudgetStop::kNone;
  }
  [[nodiscard]] BudgetStop stopCause() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t stepsUsed() const noexcept {
    return steps_.load(std::memory_order_relaxed);
  }
  /// Effective prover recursion depth (the configured cap, or `fallback`).
  [[nodiscard]] int proverDepth(int fallback) const noexcept {
    return limits_.proverDepth > 0 ? limits_.proverDepth : fallback;
  }
  [[nodiscard]] const BudgetLimits& limits() const noexcept { return limits_; }

  /// The cancellation token this budget observes (may be null).
  [[nodiscard]] const CancelToken& cancelToken() const noexcept { return cancel_; }

  /// True once the cancellation token fired (checked directly, not only at
  /// step() polls) or the budget was exhausted by cancellation. Also latches
  /// the exhaustion so later step() calls fail fast.
  [[nodiscard]] bool cancelRequested() noexcept {
    if (stopCause() == BudgetStop::kCancelled) return true;
    if (cancel_ && cancel_->load(std::memory_order_relaxed)) {
      exhaust(BudgetStop::kCancelled);
      return true;
    }
    return false;
  }

  /// Milliseconds left until this budget's deadline; nullopt when it has
  /// none. Zero when the deadline already passed. Used to derive sub-budgets
  /// that must respect the parent's wall clock.
  [[nodiscard]] std::optional<std::int64_t> remainingMs() const noexcept;

  /// True once this budget has a deadline and it has passed (a clock read;
  /// latches nothing).
  [[nodiscard]] bool pastDeadline() const noexcept {
    return limits_.deadlineMs > 0 && std::chrono::steady_clock::now() >= deadline_;
  }

  /// Limits for one of `items` equal sub-budgets of this budget: the
  /// remaining step allowance split evenly (ceil), the remaining wall clock
  /// shared (a deadline is a point in time, not a rate), the depth cap
  /// inherited. Unlimited fields stay unlimited. The driver's batched engine
  /// uses this so one expensive item exhausts only its own share instead of
  /// starving every sibling (per-item isolation).
  [[nodiscard]] BudgetLimits subLimits(std::size_t items) const noexcept;

  /// The thread's active budget (nullptr = unlimited).
  [[nodiscard]] static Budget* current() noexcept;

 private:
  friend class BudgetScope;

  BudgetLimits limits_;
  CancelToken cancel_;
  std::chrono::steady_clock::time_point deadline_{};  ///< valid iff deadlineMs > 0
  std::atomic<std::int64_t> steps_{0};
  std::atomic<BudgetStop> stop_{BudgetStop::kNone};
};

/// Installs `budget` as the thread's active budget for the scope's lifetime.
class BudgetScope {
 public:
  explicit BudgetScope(Budget* budget) noexcept;
  ~BudgetScope();

  BudgetScope(const BudgetScope&) = delete;
  BudgetScope& operator=(const BudgetScope&) = delete;

 private:
  Budget* previous_ = nullptr;
};

/// Convenience for prover hot paths: charge the current budget, if any.
/// True when work may proceed; false means "answer Unknown".
[[nodiscard]] inline bool budgetStep() noexcept {
  Budget* b = Budget::current();
  return b == nullptr || b->step();
}

/// True when the current budget's cancellation token has fired. Cheap (two
/// relaxed loads); safe with no budget installed.
[[nodiscard]] inline bool cancellationRequested() noexcept {
  Budget* b = Budget::current();
  return b != nullptr && b->cancelRequested();
}

/// Aborts a cancelled run: throws CancelledError when the current budget's
/// cancellation token has fired. Called at task and pipeline-stage
/// boundaries — between the prover's per-step polls — so cancellation
/// surfaces as a structured kCancelled failure within a bounded amount of
/// work instead of grinding through the degradation ladder to completion.
void throwIfCancelled();

/// throwIfCancelled() plus the wall clock: also throws DeadlineError once the
/// current budget's deadline has passed. Charges no step. Polled by exact
/// loops that cannot degrade (owner-run walks, enumerated counts), so the
/// request still ends near its deadline.
void throwIfExpired();

/// Calls throwIfExpired() whenever the ticks cross a multiple of 4096: the
/// poll for loops whose single iteration is too cheap to pay a clock read.
class ExpiryPoll {
 public:
  void tick(std::uint64_t n = 1) {
    const std::uint64_t before = calls_;
    calls_ += n;
    if (((before ^ calls_) >> 12) != 0) throwIfExpired();
  }

 private:
  std::uint64_t calls_ = 0;
};

// ---------------------------------------------------------------------------
// Degradation ledger
// ---------------------------------------------------------------------------

/// One conservative downgrade taken because the analysis answered Unknown
/// under budget exhaustion or an injected fault.
struct DegradationEvent {
  std::string stage;    ///< consumer: "lcg.edge", "privatization", "plan.halo", "ilp.solve"
  std::string subject;  ///< what was downgraded: "array=X phase=F3->F4"
  std::string action;   ///< conservative choice taken: "label=C", "halo kept"
  std::string cause;    ///< "budget.steps", "budget.deadline", "cancelled", "fault"

  [[nodiscard]] std::string str() const;
};

/// Thread-safe event list for one pipeline run (snapshot lands in
/// PipelineResult::degradation and, when non-empty, the golden serializer).
class DegradationReport {
 public:
  void add(DegradationEvent event);
  [[nodiscard]] bool empty() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::vector<DegradationEvent> snapshot() const;

  [[nodiscard]] static DegradationReport* current() noexcept;

 private:
  friend class DegradationScope;

  mutable std::mutex mu_;
  std::vector<DegradationEvent> events_;
};

/// Installs `report` as the thread's active ledger for the scope's lifetime.
class DegradationScope {
 public:
  explicit DegradationScope(DegradationReport* report) noexcept;
  ~DegradationScope();

  DegradationScope(const DegradationScope&) = delete;
  DegradationScope& operator=(const DegradationScope&) = delete;

 private:
  DegradationReport* previous_ = nullptr;
};

/// Records one downgrade: bumps ad.degrade.events plus the per-stage counter
/// (ad.degrade.<stage with '.'->'_'>) and appends to the current report when
/// one is installed.
void recordDegradation(std::string stage, std::string subject, std::string action,
                       std::string cause);

/// Cause string for the current budget's stop reason ("budget.steps",
/// "budget.deadline", "cancelled", "fault"); "unknown" with no budget.
[[nodiscard]] std::string currentDegradationCause();

/// True when conservative choices should be attributed to degradation: the
/// thread's budget is exhausted. (Fault sites record with their own cause.)
[[nodiscard]] inline bool budgetCompromised() noexcept {
  Budget* b = Budget::current();
  return b != nullptr && b->exhausted();
}

// Captured ambient context for hopping threads (ThreadPool::submit).
struct RobustnessContext {
  Budget* budget = nullptr;
  DegradationReport* report = nullptr;

  [[nodiscard]] static RobustnessContext capture() noexcept {
    return {Budget::current(), DegradationReport::current()};
  }
};

/// Installs both halves of a captured context (used by pool workers).
class RobustnessContextScope {
 public:
  explicit RobustnessContextScope(const RobustnessContext& ctx) noexcept
      : budget_(ctx.budget), report_(ctx.report) {}

 private:
  BudgetScope budget_;
  DegradationScope report_;
};

}  // namespace ad::support
