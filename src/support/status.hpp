// Structured failure propagation for the pipeline boundaries.
//
// The analysis library throws (ContractViolation / ProgramError /
// AnalysisError) close to the defect, but a *pipeline boundary* — one code of
// a batch, one stage of the flow, one task on the pool — must never let an
// exception escape into unrelated work. ad::Status is the boundary currency:
// an error code, a message, and a context chain (code -> stage -> array ->
// phase) assembled while the exception unwinds, so "analysis failed" always
// says *where*. ad::Expected<T> is the Status-or-value return used by the
// checked entry points (analyzeAndSimulateChecked, analyzeBatch).
//
// Context capture works through ErrorContext, an RAII frame: its destructor
// notices it is running because an exception is unwinding past it
// (std::uncaught_exceptions) and appends its "key=value" tag to a
// thread-local pending list, which statusFromCurrentException() then folds —
// outermost frame first — into the Status built inside the catch block.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/diagnostics.hpp"

namespace ad {

/// Failure taxonomy of the pipeline (docs/ROBUSTNESS.md "Error taxonomy").
enum class ErrorCode {
  kOk = 0,
  kParse,       ///< malformed mini-Fortran source (frontend::ParseError)
  kProgram,     ///< malformed program/IR (ProgramError)
  kAnalysis,    ///< analysis cannot proceed (AnalysisError)
  kContract,    ///< internal invariant violated (ContractViolation)
  kBudget,      ///< prover step budget exhausted at a point that cannot degrade
  kDeadline,    ///< wall-clock deadline passed
  kCancelled,   ///< cancellation token fired
  kFault,       ///< injected fault (support/fault.hpp)
  kAllocation,  ///< allocation failure (std::bad_alloc)
  kInvalidArgument,  ///< rejected user input (CLI flags, malformed specs)
  kInternal,    ///< any other exception
};

[[nodiscard]] const char* errorCodeName(ErrorCode code);

class Status {
 public:
  Status() = default;  ///< ok
  Status(ErrorCode code, std::string message) : code_(code), message_(std::move(message)) {}

  [[nodiscard]] static Status ok() { return Status(); }

  [[nodiscard]] bool isOk() const noexcept { return code_ == ErrorCode::kOk; }
  [[nodiscard]] ErrorCode code() const noexcept { return code_; }
  [[nodiscard]] const std::string& message() const noexcept { return message_; }

  /// Context chain, outermost first (code=tfft2, stage=lcg, array=X, ...).
  [[nodiscard]] const std::vector<std::string>& context() const noexcept { return context_; }

  /// Prepends an outer frame ("code=tfft2"): boundaries add context outside-in.
  Status& withContext(std::string frame) {
    context_.insert(context_.begin(), std::move(frame));
    return *this;
  }
  /// Appends an inner frame (used when folding unwound frames in order).
  Status& withInnerContext(std::string frame) {
    context_.push_back(std::move(frame));
    return *this;
  }

  /// "analysis error: slope is not integral [code=tfft2 > stage=lcg]".
  [[nodiscard]] std::string str() const;

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
  std::vector<std::string> context_;
};

/// Status-or-value. Mirrors std::optional's accessors so existing
/// `has_value()` / `*result` call sites keep working, but a missing value
/// always carries the structured reason.
template <typename T>
class Expected {
 public:
  /// Default: an unset error (so containers can be pre-sized before fill).
  Expected() : status_(ErrorCode::kInternal, "unset") {}
  Expected(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Expected(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    AD_REQUIRE(!status_.isOk(), "Expected error must carry a non-ok Status");
  }

  [[nodiscard]] bool ok() const noexcept { return value_.has_value(); }
  [[nodiscard]] bool has_value() const noexcept { return value_.has_value(); }
  explicit operator bool() const noexcept { return value_.has_value(); }

  [[nodiscard]] T& value() {
    AD_REQUIRE(value_.has_value(), "Expected::value() on an error");
    return *value_;
  }
  [[nodiscard]] const T& value() const {
    AD_REQUIRE(value_.has_value(), "Expected::value() on an error");
    return *value_;
  }
  [[nodiscard]] T& operator*() { return value(); }
  [[nodiscard]] const T& operator*() const { return value(); }
  [[nodiscard]] T* operator->() { return &value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }

  /// The failure (ok() implies an ok Status).
  [[nodiscard]] const Status& status() const noexcept { return status_; }
  [[nodiscard]] Status& status() noexcept { return status_; }

 private:
  std::optional<T> value_;
  Status status_;
};

/// RAII context frame. Cheap when no exception unwinds through it; when one
/// does, the frame's "key=value" tag is parked thread-locally for the catch
/// site's statusFromCurrentException() to collect.
class ErrorContext {
 public:
  ErrorContext(std::string_view key, std::string_view value);
  ~ErrorContext();

  ErrorContext(const ErrorContext&) = delete;
  ErrorContext& operator=(const ErrorContext&) = delete;

 private:
  std::string frame_;
  int uncaughtOnEntry_ = 0;
};

/// Must be called inside a catch block: classifies the in-flight exception
/// into an ErrorCode, captures its message, and folds the pending unwound
/// ErrorContext frames (outermost first) into the context chain.
[[nodiscard]] Status statusFromCurrentException();

/// Drops any parked context frames (called on entry to a boundary so frames
/// left by an unrelated, internally-recovered exception cannot leak in).
void clearPendingErrorContext();

}  // namespace ad
