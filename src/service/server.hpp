// In-process analysis server: per-request isolation, admission control,
// graceful drain (docs/SERVICE.md).
//
// The Server owns a ThreadPool and turns protocol Requests into Responses.
// Each admitted analyze request runs under its *own* support::Budget (steps /
// deadline, clamped by server policy) and its own CancelToken, so one
// runaway, starved, or cancelled request cannot degrade a neighbour — the
// same isolation analyzeBatch gives batch items, applied across clients.
// What *is* deliberately shared is the process-global interned-expression
// arena and ProofMemo: requests whose phases carry identical assumptions hit
// the same cached proofs (the ad.intern.proof_hits rate the soak bench gates
// on; the stats op reports the arena's bytes and the memo's counts).
//
// Admission control: at most `queueCapacity` requests may be admitted
// (queued + running) at once. Beyond that the server sheds with a
// retry-after hint instead of queueing unboundedly; once draining it sheds
// with retry_after_ms == 0 ("don't retry, find another server"). A request
// whose deadline expired while it sat in the queue is answered with a
// kDeadline error without running — its budget would only have produced a
// fully-degraded answer at full cost.
//
// Shutdown is a graceful drain: stop admitting, give in-flight requests
// `drainMs` to finish, then fire their cancellation tokens (the per-step
// cancel poll and the pipeline's stage-boundary checks bound how long they
// can linger), and return once the last one is answered.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "service/protocol.hpp"
#include "support/budget.hpp"
#include "support/thread_pool.hpp"

namespace ad::service {

struct ServerOptions {
  std::size_t workers = 4;          ///< pool threads executing requests
  std::size_t queueCapacity = 64;   ///< max admitted (queued + running) requests
  std::int64_t defaultBudgetSteps = 0;  ///< applied when the request sets none
  std::int64_t defaultDeadlineMs = 0;   ///< applied when the request sets none
  std::int64_t maxBudgetSteps = 0;      ///< clamp on requested steps (0 = none)
  std::int64_t maxDeadlineMs = 0;       ///< clamp on requested deadline (0 = none)
  std::size_t maxSourceBytes = 1u << 18;  ///< admission cap on ADL source size
  std::int64_t maxProcessors = 1024;
  std::int64_t retryAfterMs = 20;   ///< backoff hint on overload shedding
  std::int64_t drainMs = 2000;      ///< grace before drain cancels in-flight work
};

/// Completion handle for one submitted request. wait() blocks until the
/// response is ready; cancel() fires the request's cancellation token (a
/// queued request is answered kCancelled without running; a running one
/// aborts at its next budget poll or stage boundary).
class RequestHandle {
 public:
  [[nodiscard]] Response wait();
  [[nodiscard]] bool done() const;
  /// Completed response if done, nullopt otherwise (non-blocking).
  [[nodiscard]] std::optional<Response> poll() const;
  void cancel();

 private:
  friend class Server;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::optional<Response> response_;
  support::CancelToken token_;
  std::string id_;
};

using RequestHandlePtr = std::shared_ptr<RequestHandle>;

/// Monotonic counters since construction (also exported on ad.service.*).
struct ServerStats {
  std::int64_t accepted = 0;
  std::int64_t ok = 0;
  std::int64_t degraded = 0;
  std::int64_t errors = 0;
  std::int64_t cancelled = 0;
  std::int64_t shedOverload = 0;
  std::int64_t shedDraining = 0;
  std::int64_t queueExpired = 0;  ///< deadline passed while queued
  std::int64_t inFlight = 0;      ///< currently admitted (queued + running)
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();  ///< implies shutdown()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admits or sheds `request`. Always returns a handle; a shed or invalid
  /// request's handle is already done. Non-analyze ops are answered inline.
  [[nodiscard]] RequestHandlePtr submit(Request request);

  /// Synchronous convenience: submit + wait.
  [[nodiscard]] Response call(Request request);

  /// Cancels an in-flight request by protocol id. False when no in-flight
  /// request carries that id (already finished, or never admitted).
  bool cancelById(const std::string& id);

  [[nodiscard]] ServerStats stats() const;
  /// stats() as a JSON object (the `info` payload of the stats op).
  [[nodiscard]] std::string statsJson() const;

  /// Graceful drain; idempotent, safe from any thread. Blocks until every
  /// admitted request has been answered.
  void shutdown();

  [[nodiscard]] bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const ServerOptions& options() const noexcept { return options_; }

 private:
  struct Admitted {
    Request request;
    RequestHandlePtr handle;
    support::BudgetLimits limits;  ///< request limits after server clamping
    std::chrono::steady_clock::time_point admitted;
    std::uint64_t seq = 0;
  };

  void runRequest(const std::shared_ptr<Admitted>& item);
  [[nodiscard]] Response analyze(const Admitted& item);
  void finish(const Admitted& item, Response response);
  [[nodiscard]] Response inlineControl(const Request& request);

  ServerOptions options_;
  std::unique_ptr<support::ThreadPool> pool_;
  std::atomic<bool> draining_{false};

  mutable std::mutex mu_;                   ///< guards pending_ and drainCv_
  std::condition_variable drainCv_;         ///< signalled as requests finish
  /// Admitted requests not yet finished, by sequence number.
  std::unordered_map<std::uint64_t, std::shared_ptr<Admitted>> pending_;
  std::uint64_t nextSeq_ = 1;

  std::atomic<std::int64_t> admitted_{0};   ///< queued + running
  std::atomic<std::int64_t> accepted_{0};
  std::atomic<std::int64_t> ok_{0};
  std::atomic<std::int64_t> degraded_{0};
  std::atomic<std::int64_t> errors_{0};
  std::atomic<std::int64_t> cancelled_{0};
  std::atomic<std::int64_t> shedOverload_{0};
  std::atomic<std::int64_t> shedDraining_{0};
  std::atomic<std::int64_t> queueExpired_{0};
};

}  // namespace ad::service
