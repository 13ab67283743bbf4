#include "support/status.hpp"

#include <exception>
#include <new>

namespace ad {

namespace {

/// Frames recorded while an exception unwound, innermost first.
thread_local std::vector<std::string> tlPendingFrames;

}  // namespace

const char* errorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kParse: return "parse";
    case ErrorCode::kProgram: return "program";
    case ErrorCode::kAnalysis: return "analysis";
    case ErrorCode::kContract: return "contract";
    case ErrorCode::kBudget: return "budget";
    case ErrorCode::kDeadline: return "deadline";
    case ErrorCode::kCancelled: return "cancelled";
    case ErrorCode::kFault: return "fault";
    case ErrorCode::kAllocation: return "allocation";
    case ErrorCode::kInvalidArgument: return "invalid_argument";
    case ErrorCode::kInternal: return "internal";
  }
  return "?";
}

std::string Status::str() const {
  if (isOk()) return "ok";
  std::string out = errorCodeName(code_);
  out += " error: ";
  out += message_;
  if (!context_.empty()) {
    out += " [";
    for (std::size_t i = 0; i < context_.size(); ++i) {
      if (i > 0) out += " > ";
      out += context_[i];
    }
    out += "]";
  }
  return out;
}

ErrorContext::ErrorContext(std::string_view key, std::string_view value)
    : uncaughtOnEntry_(std::uncaught_exceptions()) {
  frame_.reserve(key.size() + value.size() + 1);
  frame_.append(key);
  frame_ += '=';
  frame_.append(value);
}

ErrorContext::~ErrorContext() {
  // Destroyed by stack unwinding: park the frame for the catch site. A frame
  // destroyed on the normal path (same uncaught count) records nothing.
  if (std::uncaught_exceptions() > uncaughtOnEntry_) {
    try {
      tlPendingFrames.push_back(std::move(frame_));
    } catch (...) {  // NOLINT(bugprone-empty-catch): never throw from unwind
    }
  }
}

void clearPendingErrorContext() { tlPendingFrames.clear(); }

Status statusFromCurrentException() {
  Status status;
  try {
    throw;
  } catch (const ContractViolation& e) {
    status = Status(ErrorCode::kContract, e.what());
  } catch (const CancelledError& e) {
    status = Status(ErrorCode::kCancelled, e.what());
  } catch (const DeadlineError& e) {
    status = Status(ErrorCode::kDeadline, e.what());
  } catch (const AnalysisError& e) {
    status = Status(ErrorCode::kAnalysis, e.what());
  } catch (const ProgramError& e) {
    // ParseError derives from ProgramError; recover the finer code from the
    // conventional "line:col:" message prefix without a frontend dependency.
    const std::string msg = e.what();
    status = Status(msg.rfind("parse error", 0) == 0 ? ErrorCode::kParse : ErrorCode::kProgram,
                    msg);
  } catch (const std::bad_alloc& e) {
    status = Status(ErrorCode::kAllocation, e.what());
  } catch (const std::exception& e) {
    status = Status(ErrorCode::kInternal, e.what());
  } catch (...) {
    status = Status(ErrorCode::kInternal, "unknown exception");
  }
  // Unwound frames were parked innermost first; the chain reads outermost
  // first, so fold them in reverse.
  for (auto it = tlPendingFrames.rbegin(); it != tlPendingFrames.rend(); ++it) {
    status.withInnerContext(std::move(*it));
  }
  tlPendingFrames.clear();
  return status;
}

}  // namespace ad
