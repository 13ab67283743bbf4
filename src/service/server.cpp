#include "service/server.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "codes/suite.hpp"
#include "driver/pipeline.hpp"
#include "driver/serialize.hpp"
#include "frontend/parser.hpp"
#include "obs/obs.hpp"
#include "service/json.hpp"
#include "support/fault.hpp"
#include "symbolic/intern.hpp"

namespace ad::service {

namespace {

std::int64_t nowUsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Applies a server-side ceiling to a requested allowance: the request's own
/// value when given (clamped), the server default otherwise.
std::int64_t clampAllowance(std::int64_t requested, std::int64_t fallback, std::int64_t cap) {
  std::int64_t v = requested > 0 ? requested : fallback;
  if (cap > 0) v = v > 0 ? std::min(v, cap) : cap;
  return v;
}

Response errorResponse(const Request& request, ErrorCode code, std::string message) {
  Response r;
  r.id = request.id;
  r.kind = ResponseKind::kError;
  r.errorCode = errorCodeName(code);
  r.error = std::move(message);
  return r;
}

}  // namespace

// ---------------------------------------------------------------------------
// RequestHandle
// ---------------------------------------------------------------------------

Response RequestHandle::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return response_.has_value(); });
  return *response_;
}

bool RequestHandle::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return response_.has_value();
}

std::optional<Response> RequestHandle::poll() const {
  std::lock_guard<std::mutex> lock(mu_);
  return response_;
}

void RequestHandle::cancel() {
  if (token_ != nullptr) token_->store(true, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

Server::Server(ServerOptions options) : options_(options) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.queueCapacity == 0) options_.queueCapacity = 1;
  pool_ = std::make_unique<support::ThreadPool>(options_.workers);
  // Register the ad.service.* schema unconditionally so the exported key set
  // is stable whether or not any request arrives (obs naming convention).
  auto& m = obs::metrics();
  m.counter("ad.service.requests");
  m.counter("ad.service.ok");
  m.counter("ad.service.degraded");
  m.counter("ad.service.errors");
  m.counter("ad.service.cancelled");
  m.counter("ad.service.shed_overload");
  m.counter("ad.service.shed_draining");
  m.counter("ad.service.queue_expired");
  m.counter("ad.service.faults");
  m.gauge("ad.service.inflight");
  m.histogram("ad.service.latency_us");
  m.histogram("ad.service.queue_us");
}

Server::~Server() {
  shutdown();
  // Join the workers here, while every member is still alive: members
  // destruct in reverse declaration order, which would tear down drainCv_
  // before pool_ — and a worker can still be inside finish()'s
  // drainCv_.notify_all() after shutdown() observed pending_ empty.
  pool_.reset();
}

RequestHandlePtr Server::submit(Request request) {
  auto handle = std::make_shared<RequestHandle>();
  handle->id_ = request.id;
  handle->token_ = std::make_shared<std::atomic<bool>>(false);
  obs::metrics().counter("ad.service.requests").add(1);

  auto fulfillNow = [&handle](Response response) {
    std::lock_guard<std::mutex> lock(handle->mu_);
    handle->response_ = std::move(response);
    handle->cv_.notify_all();
  };

  // Control-plane ops are answered inline: they are cheap, must work even
  // under full queues (stats during overload is the whole point), and
  // shutdown must be accepted while draining.
  if (request.op != Op::kAnalyze) {
    fulfillNow(inlineControl(request));
    return handle;
  }

  // Admission control, cheapest checks first.
  if (draining_.load(std::memory_order_acquire)) {
    shedDraining_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().counter("ad.service.shed_draining").add(1);
    Response r;
    r.id = request.id;
    r.kind = ResponseKind::kShed;
    r.retryAfterMs = 0;  // draining: do not retry against this server
    fulfillNow(std::move(r));
    return handle;
  }
  if (request.source.empty()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().counter("ad.service.errors").add(1);
    fulfillNow(errorResponse(request, ErrorCode::kInvalidArgument,
                             "analyze requires a non-empty 'source'"));
    return handle;
  }
  if (request.source.size() > options_.maxSourceBytes) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().counter("ad.service.errors").add(1);
    fulfillNow(errorResponse(request, ErrorCode::kInvalidArgument,
                             "source of " + std::to_string(request.source.size()) +
                                 " bytes exceeds the " +
                                 std::to_string(options_.maxSourceBytes) + "-byte cap"));
    return handle;
  }
  if (request.processors < 1 || request.processors > options_.maxProcessors) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().counter("ad.service.errors").add(1);
    fulfillNow(errorResponse(request, ErrorCode::kInvalidArgument,
                             "processors must be in [1, " +
                                 std::to_string(options_.maxProcessors) + "]"));
    return handle;
  }
  if (!driver::parseValidateMode(request.validate)) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().counter("ad.service.errors").add(1);
    fulfillNow(errorResponse(request, ErrorCode::kInvalidArgument,
                             "validate must be none|trace|symbolic|both"));
    return handle;
  }

  // Bounded accept queue: admitted_ counts queued + running. The increment
  // must happen-before the capacity test releases anyone else, hence the
  // fetch_add / undo pattern instead of load-then-add.
  const std::int64_t admitted = admitted_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (admitted > static_cast<std::int64_t>(options_.queueCapacity)) {
    admitted_.fetch_sub(1, std::memory_order_acq_rel);
    shedOverload_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().counter("ad.service.shed_overload").add(1);
    Response r;
    r.id = request.id;
    r.kind = ResponseKind::kShed;
    r.retryAfterMs = options_.retryAfterMs;
    fulfillNow(std::move(r));
    return handle;
  }

  accepted_.fetch_add(1, std::memory_order_relaxed);
  obs::metrics().gauge("ad.service.inflight").set(admitted);

  auto item = std::make_shared<Admitted>();
  item->request = std::move(request);
  item->handle = handle;
  item->admitted = std::chrono::steady_clock::now();
  item->limits.proverSteps = clampAllowance(item->request.budgetSteps,
                                            options_.defaultBudgetSteps,
                                            options_.maxBudgetSteps);
  item->limits.deadlineMs = clampAllowance(item->request.deadlineMs,
                                           options_.defaultDeadlineMs,
                                           options_.maxDeadlineMs);
  {
    std::lock_guard<std::mutex> lock(mu_);
    item->seq = nextSeq_++;
    pending_.emplace(item->seq, item);
  }
  pool_->submit([this, item] { runRequest(item); });
  return handle;
}

Response Server::call(Request request) { return submit(std::move(request))->wait(); }

bool Server::cancelById(const std::string& id) {
  if (id.empty()) return false;
  std::shared_ptr<Admitted> victim;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [seq, item] : pending_) {
      if (item->request.id == id) {
        victim = item;
        break;
      }
    }
  }
  if (victim == nullptr) return false;
  victim->handle->cancel();
  return true;
}

void Server::runRequest(const std::shared_ptr<Admitted>& item) {
  const std::int64_t queueUs = nowUsSince(item->admitted);
  const auto runStart = std::chrono::steady_clock::now();
  Response response;

  if (item->handle->token_->load(std::memory_order_relaxed)) {
    // Cancelled while queued: answer without starting doomed work.
    response.kind = ResponseKind::kCancelled;
  } else if (item->limits.deadlineMs > 0 && queueUs / 1000 >= item->limits.deadlineMs) {
    // Deadline spent in the queue: running now could only produce a
    // fully-degraded answer at full cost, so refuse with the real cause.
    queueExpired_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().counter("ad.service.queue_expired").add(1);
    response = errorResponse(item->request, ErrorCode::kDeadline,
                             "deadline expired after " + std::to_string(queueUs / 1000) +
                                 " ms in the accept queue");
  } else {
    response = analyze(*item);
  }

  response.id = item->request.id;
  response.queueUs = queueUs;
  response.runUs = nowUsSince(runStart);
  finish(*item, std::move(response));
}

Response Server::analyze(const Admitted& item) {
  const Request& request = item.request;
  Response response;
  response.id = request.id;

  // The service's own fault point: CI campaigns inject here to prove a
  // failure in the handler itself stays a structured per-request error.
  if (AD_FAULT_POINT("service.handle")) {
    obs::metrics().counter("ad.service.faults").add(1);
    errors_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().counter("ad.service.errors").add(1);
    return errorResponse(request, ErrorCode::kFault, "injected fault: service.handle");
  }

  // Remaining deadline: the request's allowance is measured from admission,
  // so time spent queued is charged against it.
  support::BudgetLimits limits = item.limits;
  if (limits.deadlineMs > 0) {
    const std::int64_t queuedMs = nowUsSince(item.admitted) / 1000;
    limits.deadlineMs = std::max<std::int64_t>(1, limits.deadlineMs - queuedMs);
  }

  ir::Program program;
  driver::PipelineConfig config;
  clearPendingErrorContext();
  try {
    ErrorContext frame("request", request.id.empty() ? "?" : request.id);
    program = frontend::parseProgram(request.source);
    config.params = codes::bindParams(program, request.params);
  } catch (...) {
    Status status = statusFromCurrentException();
    errors_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().counter("ad.service.errors").add(1);
    return errorResponse(request, status.code(), status.str());
  }

  config.processors = request.processors;
  config.simulatePlan = request.simulate;
  config.simulateBaseline = request.simulate;
  config.validate =
      driver::parseValidateMode(request.validate).value_or(driver::ValidateMode::kNone);
  // Per-request isolation: this run gets its own Budget (created by the
  // pipeline from these limits) and this handle's cancellation token. jobs
  // stays 1 — concurrency comes from requests, not from within one.
  config.budget = limits;
  config.cancel = item.handle->token_;
  config.jobs = 1;

  Expected<driver::PipelineResult> result =
      driver::analyzeAndSimulateChecked(program, config, nullptr);
  if (!result.has_value()) {
    const Status& status = result.status();
    if (status.code() == ErrorCode::kCancelled) {
      response.kind = ResponseKind::kCancelled;
      return response;
    }
    Status named = status;
    named.withContext("request=" + (request.id.empty() ? std::string("?") : request.id));
    errors_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().counter("ad.service.errors").add(1);
    return errorResponse(request, named.code(), named.str());
  }

  // Validation verdicts are per-request errors, mirroring the CLI's exit 1.
  if (!result->symbolicAgrees()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().counter("ad.service.errors").add(1);
    Response r = errorResponse(request, ErrorCode::kAnalysis,
                               "differential validation mismatch: " +
                                   result->symbolicDifference);
    r.errorCode = "validation";
    return r;
  }
  if (result->localityCheck && !result->localityCheck->ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().counter("ad.service.errors").add(1);
    Response r = errorResponse(request, ErrorCode::kAnalysis,
                               "trace validation failed against Theorem-1/2 labels");
    r.errorCode = "validation";
    return r;
  }

  clearPendingErrorContext();
  try {
    response.golden = driver::serializeGolden(*result, program);
  } catch (...) {
    Status status = statusFromCurrentException();
    errors_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().counter("ad.service.errors").add(1);
    return errorResponse(request, status.code(), status.str());
  }

  if (result->degraded()) {
    response.kind = ResponseKind::kDegraded;
    for (const auto& event : result->degradation) {
      response.degradation.push_back(event.str());
    }
  } else {
    response.kind = ResponseKind::kOk;
  }
  if (request.simulate) {
    response.planEfficiency = result->plannedEfficiency();
    response.naiveEfficiency = result->naiveEfficiency();
  }
  return response;
}

void Server::finish(const Admitted& item, Response response) {
  switch (response.kind) {
    case ResponseKind::kOk:
      ok_.fetch_add(1, std::memory_order_relaxed);
      obs::metrics().counter("ad.service.ok").add(1);
      break;
    case ResponseKind::kDegraded:
      degraded_.fetch_add(1, std::memory_order_relaxed);
      obs::metrics().counter("ad.service.degraded").add(1);
      break;
    case ResponseKind::kCancelled:
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      obs::metrics().counter("ad.service.cancelled").add(1);
      break;
    default:
      // Error tallies were bumped where the error was classified.
      break;
  }
  obs::metrics().histogram("ad.service.queue_us").observe(response.queueUs);
  obs::metrics().histogram("ad.service.latency_us").observe(response.queueUs + response.runUs);

  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.erase(item.seq);
  }
  const std::int64_t admitted = admitted_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  obs::metrics().gauge("ad.service.inflight").set(admitted);

  {
    std::lock_guard<std::mutex> lock(item.handle->mu_);
    item.handle->response_ = std::move(response);
    item.handle->cv_.notify_all();
  }
  drainCv_.notify_all();
}

Response Server::inlineControl(const Request& request) {
  Response response;
  response.id = request.id;
  switch (request.op) {
    case Op::kPing: {
      json::Value info = json::Value::makeObject();
      info.add("schema", json::Value::makeString(std::string(kProtocolSchema)));
      info.add("draining", json::Value::makeBool(draining()));
      response.kind = ResponseKind::kInfo;
      response.info = info.dump();
      return response;
    }
    case Op::kStats:
      response.kind = ResponseKind::kInfo;
      response.info = statsJson();
      return response;
    case Op::kCancel: {
      const bool hit = cancelById(request.id);
      json::Value info = json::Value::makeObject();
      info.add("cancelled", json::Value::makeBool(hit));
      response.kind = ResponseKind::kInfo;
      response.info = info.dump();
      return response;
    }
    case Op::kShutdown: {
      // Ack first, drain after: the caller's frame must not wait out the
      // drain. Flipping the flag here stops new admissions immediately; the
      // wire layer (or the owner) runs the blocking drain.
      draining_.store(true, std::memory_order_release);
      json::Value info = json::Value::makeObject();
      info.add("draining", json::Value::makeBool(true));
      response.kind = ResponseKind::kInfo;
      response.info = info.dump();
      return response;
    }
    case Op::kAnalyze: break;  // unreachable: submit() routes analyze elsewhere
  }
  return errorResponse(request, ErrorCode::kInternal, "unroutable op");
}

ServerStats Server::stats() const {
  ServerStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.ok = ok_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.shedOverload = shedOverload_.load(std::memory_order_relaxed);
  s.shedDraining = shedDraining_.load(std::memory_order_relaxed);
  s.queueExpired = queueExpired_.load(std::memory_order_relaxed);
  s.inFlight = admitted_.load(std::memory_order_relaxed);
  return s;
}

std::string Server::statsJson() const {
  const ServerStats s = stats();
  json::Value root = json::Value::makeObject();
  root.add("schema", json::Value::makeString("ad.service.stats.v1"));
  root.add("accepted", json::Value::makeInt(s.accepted));
  root.add("ok", json::Value::makeInt(s.ok));
  root.add("degraded", json::Value::makeInt(s.degraded));
  root.add("errors", json::Value::makeInt(s.errors));
  root.add("cancelled", json::Value::makeInt(s.cancelled));
  root.add("shed_overload", json::Value::makeInt(s.shedOverload));
  root.add("shed_draining", json::Value::makeInt(s.shedDraining));
  root.add("queue_expired", json::Value::makeInt(s.queueExpired));
  root.add("in_flight", json::Value::makeInt(s.inFlight));
  root.add("draining", json::Value::makeBool(draining()));
  // The process-wide arena and proof memo every request shares.
  const sym::ProofMemo::Stats memo = sym::ProofMemo::global().stats();
  root.add("arena_bytes",
           json::Value::makeInt(static_cast<std::int64_t>(sym::ExprIntern::global().bytes())));
  root.add("memo_contexts", json::Value::makeInt(memo.contexts));
  root.add("memo_hits", json::Value::makeInt(memo.hits));
  root.add("memo_misses", json::Value::makeInt(memo.misses));
  return root.dump();
}

void Server::shutdown() {
  draining_.store(true, std::memory_order_release);
  const auto grace = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(std::max<std::int64_t>(0, options_.drainMs));
  std::unique_lock<std::mutex> lock(mu_);
  // Phase 1: let in-flight requests finish on their own within the grace
  // window. drainCv_ is signalled on every completion.
  drainCv_.wait_until(lock, grace, [this] { return pending_.empty(); });
  // Phase 2: cancel stragglers. The per-step cancel poll plus the pipeline's
  // stage boundaries bound how long each can keep running, so the final wait
  // is unconditional — every request WILL be answered (kCancelled at worst).
  for (const auto& [seq, item] : pending_) item->handle->cancel();
  drainCv_.wait(lock, [this] { return pending_.empty(); });
}

}  // namespace ad::service
