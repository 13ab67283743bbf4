// Diagnostics: contract checking and error types used across the library.
//
// Per the C++ Core Guidelines (I.6, E.12) we make preconditions explicit and
// fail loudly: AD_REQUIRE throws ContractViolation with source location so a
// misuse is attributable, and AD_UNREACHABLE marks impossible paths.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace ad {

/// Thrown when a documented precondition or internal invariant is violated.
class ContractViolation : public std::logic_error {
 public:
  ContractViolation(std::string_view condition, std::string_view file, int line,
                    std::string_view message);

  [[nodiscard]] const std::string& condition() const noexcept { return condition_; }
  [[nodiscard]] const std::string& file() const noexcept { return file_; }
  [[nodiscard]] int line() const noexcept { return line_; }

 private:
  std::string condition_;
  std::string file_;
  int line_ = 0;
};

/// Thrown when an input program (mini-Fortran source or IR) is malformed.
class ProgramError : public std::runtime_error {
 public:
  explicit ProgramError(const std::string& message) : std::runtime_error(message) {}
};

/// Thrown when an analysis cannot proceed (e.g. symbolic evaluation needs a
/// binding that was not supplied).
class AnalysisError : public std::runtime_error {
 public:
  explicit AnalysisError(const std::string& message) : std::runtime_error(message) {}
};

/// Thrown when a run's cancellation token fired. Unlike budget exhaustion —
/// which degrades the analysis conservatively and lets it finish — a
/// cancelled run aborts at the next task or stage boundary: the caller asked
/// for the work to stop, so a degraded-but-complete answer is wasted effort.
/// Boundaries map it to ErrorCode::kCancelled (statusFromCurrentException).
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(const std::string& message) : std::runtime_error(message) {}
};

/// Thrown when a run's wall-clock deadline passed inside exact work that has
/// no conservative fallback (communication generation, enumerated counts).
/// Boundaries map it to ErrorCode::kDeadline.
class DeadlineError : public std::runtime_error {
 public:
  explicit DeadlineError(const std::string& message) : std::runtime_error(message) {}
};

[[noreturn]] void failContract(std::string_view condition, std::string_view file, int line,
                               std::string_view message);

}  // namespace ad

#define AD_REQUIRE(cond, msg)                                 \
  do {                                                        \
    if (!(cond)) ::ad::failContract(#cond, __FILE__, __LINE__, (msg)); \
  } while (false)

#define AD_CHECK(cond) AD_REQUIRE(cond, "internal invariant violated")

#define AD_UNREACHABLE(msg) ::ad::failContract("unreachable", __FILE__, __LINE__, (msg))
