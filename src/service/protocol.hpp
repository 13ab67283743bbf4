// Wire protocol of the analysis service: length-prefixed JSON frames.
//
// A frame is a 4-byte big-endian payload length followed by exactly that many
// payload bytes; the payload is one JSON object. Lengths of zero or above
// kMaxFramePayload are protocol violations — a reader rejects them *before*
// allocating, so a hostile 4-byte header cannot reserve gigabytes.
//
// Requests ("ad.service.v1"):
//   {"op":"analyze","id":"r1","source":"<ADL program>",
//    "params":{"N":4096},"processors":8,
//    "validate":"none|trace|symbolic|both","simulate":false,
//    "budget_steps":0,"deadline_ms":0}
//   {"op":"cancel","id":"r1"}      cancel an in-flight request by id
//   {"op":"ping"}                  liveness + version probe
//   {"op":"stats"}                 server counters snapshot
//   {"op":"shutdown"}              begin graceful drain (docs/SERVICE.md)
//
// Responses: {"id":..., "kind":...} plus kind-specific fields:
//   kind "ok"        golden   — byte-identical to a single-shot CLI run
//   kind "degraded"  golden + degradation[] — budget ran out, result sound
//   (ok and degraded add plan_efficiency + naive_efficiency, the DSM cost
//   model's parallel efficiency of the plan and of the naive BLOCK baseline,
//   when the request set "simulate":true)
//   kind "error"     code + error — structured per-request failure
//   kind "shed"      retry_after_ms — admission control rejected the request;
//                    retry_after_ms 0 means "do not retry" (server draining)
//   kind "cancelled" — the request's cancellation token fired
//   kind "info"      info — control-plane payload (ping/stats/shutdown acks)
//
// Parsing is total: parseRequest/parseResponse return Expected and never
// throw on hostile bytes (satellite 4's fuzz coverage drives this boundary).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/status.hpp"

namespace ad::service {

inline constexpr std::string_view kProtocolSchema = "ad.service.v1";

/// Hard cap on one frame's payload. Large enough for any golden artifact the
/// suite produces; small enough that a malicious length header cannot cause
/// an outsized allocation.
inline constexpr std::uint32_t kMaxFramePayload = 8u << 20;

enum class Op { kAnalyze, kCancel, kStats, kPing, kShutdown };

[[nodiscard]] const char* opName(Op op);

/// One client request. Field defaults are the protocol defaults: omitted
/// JSON fields leave them untouched.
struct Request {
  Op op = Op::kAnalyze;
  std::string id;                               ///< client-chosen correlation id
  std::string source;                           ///< ADL program text (analyze)
  std::map<std::string, std::int64_t> params;   ///< by-name parameter bindings
  std::int64_t processors = 8;
  std::string validate = "none";                ///< none|trace|symbolic|both
  bool simulate = false;                        ///< run the DSM cost model too
  std::int64_t budgetSteps = 0;                 ///< 0 = server default
  std::int64_t deadlineMs = 0;                  ///< 0 = server default
};

enum class ResponseKind { kOk, kDegraded, kError, kShed, kCancelled, kInfo };

[[nodiscard]] const char* responseKindName(ResponseKind kind);

struct Response {
  std::string id;
  ResponseKind kind = ResponseKind::kError;
  std::string golden;                   ///< ok/degraded: the golden artifact
  std::vector<std::string> degradation; ///< degraded: the downgrade ledger
  /// ok/degraded with simulate: PipelineResult::plannedEfficiency() and
  /// naiveEfficiency(); absent otherwise.
  std::optional<double> planEfficiency;
  std::optional<double> naiveEfficiency;
  std::string errorCode;                ///< error: errorCodeName() of the Status
  std::string error;                    ///< error: Status::str()
  std::int64_t retryAfterMs = 0;        ///< shed: backoff hint (0 = don't retry)
  std::int64_t queueUs = 0;             ///< admission -> start (ok/degraded/error)
  std::int64_t runUs = 0;               ///< start -> completion
  std::string info;                     ///< info: JSON text (ping/stats payload)

  [[nodiscard]] bool isShed() const noexcept { return kind == ResponseKind::kShed; }
  [[nodiscard]] bool hasGolden() const noexcept {
    return kind == ResponseKind::kOk || kind == ResponseKind::kDegraded;
  }
};

/// Prepends the 4-byte big-endian length header to `payload`.
/// Requires payload.size() <= kMaxFramePayload.
[[nodiscard]] std::string encodeFrame(std::string_view payload);

/// Decodes a length header. Returns kInvalidArgument for 0 or oversized
/// lengths so callers reject before reading (or allocating) the body.
[[nodiscard]] Expected<std::uint32_t> decodeFrameLength(const unsigned char header[4]);

[[nodiscard]] std::string serializeRequest(const Request& request);
[[nodiscard]] Expected<Request> parseRequest(std::string_view payload);

[[nodiscard]] std::string serializeResponse(const Response& response);
[[nodiscard]] Expected<Response> parseResponse(std::string_view payload);

}  // namespace ad::service
