#include "support/budget.hpp"

#include "obs/obs.hpp"

namespace ad::support {

namespace {

thread_local Budget* tlBudget = nullptr;
thread_local DegradationReport* tlReport = nullptr;

}  // namespace

const char* budgetStopName(BudgetStop s) {
  switch (s) {
    case BudgetStop::kNone: return "none";
    case BudgetStop::kSteps: return "budget.steps";
    case BudgetStop::kDeadline: return "budget.deadline";
    case BudgetStop::kCancelled: return "cancelled";
    case BudgetStop::kFault: return "fault";
  }
  return "?";
}

Budget::Budget(const BudgetLimits& limits, CancelToken cancel)
    : limits_(limits), cancel_(std::move(cancel)) {
  if (limits_.deadlineMs > 0) {
    deadline_ = std::chrono::steady_clock::now() + std::chrono::milliseconds(limits_.deadlineMs);
  }
}

bool Budget::step() noexcept {
  if (exhausted()) return false;
  const std::int64_t n = steps_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (limits_.proverSteps > 0 && n > limits_.proverSteps) {
    exhaust(BudgetStop::kSteps);
    return false;
  }
  // Cancellation is polled on every step: it is one relaxed load, and the
  // bounded-step cancellation guarantee (a cancelled prover answers Unknown
  // within one step of the token firing) depends on it.
  if (cancel_ && cancel_->load(std::memory_order_relaxed)) {
    exhaust(BudgetStop::kCancelled);
    return false;
  }
  if ((n & 63) == 0) {  // the deadline needs a clock read; poll every 64 steps
    if (limits_.deadlineMs > 0 && std::chrono::steady_clock::now() >= deadline_) {
      exhaust(BudgetStop::kDeadline);
      return false;
    }
  }
  return true;
}

std::optional<std::int64_t> Budget::remainingMs() const noexcept {
  if (limits_.deadlineMs <= 0) return std::nullopt;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline_ - std::chrono::steady_clock::now());
  return std::max<std::int64_t>(0, left.count());
}

BudgetLimits Budget::subLimits(std::size_t items) const noexcept {
  const std::int64_t n = items == 0 ? 1 : static_cast<std::int64_t>(items);
  BudgetLimits sub;
  sub.proverDepth = limits_.proverDepth;
  if (limits_.proverSteps > 0) {
    const std::int64_t left =
        std::max<std::int64_t>(0, limits_.proverSteps - stepsUsed());
    // An exhausted or empty allowance becomes a 1-step share: the sub-budget
    // still exists (and immediately degrades), never silently unlimited.
    sub.proverSteps = std::max<std::int64_t>(1, (left + n - 1) / n);
  }
  if (limits_.deadlineMs > 0) {
    // The wall clock is shared, not split: every item must be done by the
    // parent's deadline. remainingMs() == 0 maps to the 1 ms floor so the
    // sub-budget keeps a deadline at all (0 would mean "none").
    sub.deadlineMs = std::max<std::int64_t>(1, remainingMs().value_or(1));
  }
  return sub;
}

void Budget::exhaust(BudgetStop cause) noexcept {
  BudgetStop expected = BudgetStop::kNone;
  if (stop_.compare_exchange_strong(expected, cause, std::memory_order_relaxed)) {
    obs::metrics().counter("ad.budget.exhaustions").add(1);
  }
}

Budget* Budget::current() noexcept { return tlBudget; }

void throwIfCancelled() {
  if (cancellationRequested()) {
    throw CancelledError("cancelled by caller");
  }
}

void throwIfExpired() {
  throwIfCancelled();
  if (const Budget* b = Budget::current(); b != nullptr && b->pastDeadline()) {
    throw DeadlineError("deadline passed");
  }
}

BudgetScope::BudgetScope(Budget* budget) noexcept : previous_(tlBudget) { tlBudget = budget; }
BudgetScope::~BudgetScope() { tlBudget = previous_; }

// ---------------------------------------------------------------------------
// Degradation ledger
// ---------------------------------------------------------------------------

std::string DegradationEvent::str() const {
  return stage + " [" + subject + "]: " + action + " (" + cause + ")";
}

void DegradationReport::add(DegradationEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

bool DegradationReport::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.empty();
}

std::size_t DegradationReport::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<DegradationEvent> DegradationReport::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

DegradationReport* DegradationReport::current() noexcept { return tlReport; }

DegradationScope::DegradationScope(DegradationReport* report) noexcept : previous_(tlReport) {
  tlReport = report;
}
DegradationScope::~DegradationScope() { tlReport = previous_; }

void recordDegradation(std::string stage, std::string subject, std::string action,
                       std::string cause) {
  obs::metrics().counter("ad.degrade.events").add(1);
  std::string perStage = "ad.degrade.";
  for (char c : stage) perStage += c == '.' ? '_' : c;
  obs::metrics().counter(perStage).add(1);
  if (DegradationReport* r = DegradationReport::current()) {
    r->add(DegradationEvent{std::move(stage), std::move(subject), std::move(action),
                            std::move(cause)});
  }
}

std::string currentDegradationCause() {
  if (Budget* b = Budget::current(); b != nullptr && b->exhausted()) {
    return budgetStopName(b->stopCause());
  }
  return "unknown";
}

}  // namespace ad::support
