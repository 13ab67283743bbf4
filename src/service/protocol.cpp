#include "service/protocol.hpp"

#include "service/json.hpp"
#include "support/diagnostics.hpp"

namespace ad::service {

const char* opName(Op op) {
  switch (op) {
    case Op::kAnalyze: return "analyze";
    case Op::kCancel: return "cancel";
    case Op::kStats: return "stats";
    case Op::kPing: return "ping";
    case Op::kShutdown: return "shutdown";
  }
  return "?";
}

const char* responseKindName(ResponseKind kind) {
  switch (kind) {
    case ResponseKind::kOk: return "ok";
    case ResponseKind::kDegraded: return "degraded";
    case ResponseKind::kError: return "error";
    case ResponseKind::kShed: return "shed";
    case ResponseKind::kCancelled: return "cancelled";
    case ResponseKind::kInfo: return "info";
  }
  return "?";
}

std::string encodeFrame(std::string_view payload) {
  AD_REQUIRE(payload.size() <= kMaxFramePayload, "frame payload exceeds kMaxFramePayload");
  const auto n = static_cast<std::uint32_t>(payload.size());
  std::string out;
  out.reserve(payload.size() + 4);
  out += static_cast<char>((n >> 24) & 0xFF);
  out += static_cast<char>((n >> 16) & 0xFF);
  out += static_cast<char>((n >> 8) & 0xFF);
  out += static_cast<char>(n & 0xFF);
  out.append(payload);
  return out;
}

Expected<std::uint32_t> decodeFrameLength(const unsigned char header[4]) {
  const std::uint32_t n = (static_cast<std::uint32_t>(header[0]) << 24) |
                          (static_cast<std::uint32_t>(header[1]) << 16) |
                          (static_cast<std::uint32_t>(header[2]) << 8) |
                          static_cast<std::uint32_t>(header[3]);
  if (n == 0) {
    return Status(ErrorCode::kInvalidArgument, "protocol: zero-length frame");
  }
  if (n > kMaxFramePayload) {
    return Status(ErrorCode::kInvalidArgument,
                  "protocol: frame of " + std::to_string(n) + " bytes exceeds the " +
                      std::to_string(kMaxFramePayload) + "-byte cap");
  }
  return n;
}

namespace {

Status protocolError(std::string message) {
  return Status(ErrorCode::kInvalidArgument, "protocol: " + std::move(message));
}

/// Fetches an optional non-negative integer field.
Status readCount(const json::Value& root, std::string_view key, std::int64_t& out) {
  const json::Value* v = root.find(key);
  if (v == nullptr) return Status::ok();
  if (v->kind != json::Value::Kind::kInt || v->integer < 0) {
    return protocolError("field '" + std::string(key) + "' must be a non-negative integer");
  }
  out = v->integer;
  return Status::ok();
}

/// Fetches an optional number field. dump() prints whole doubles as integers
/// and non-finite ones as null (read as absent), so all three are accepted.
Status readNumber(const json::Value& root, std::string_view key, std::optional<double>& out) {
  const json::Value* v = root.find(key);
  if (v == nullptr || v->kind == json::Value::Kind::kNull) return Status::ok();
  if (v->kind == json::Value::Kind::kDouble) {
    out = v->number;
  } else if (v->kind == json::Value::Kind::kInt) {
    out = static_cast<double>(v->integer);
  } else {
    return protocolError("field '" + std::string(key) + "' must be a number");
  }
  return Status::ok();
}

Status readString(const json::Value& root, std::string_view key, std::string& out) {
  const json::Value* v = root.find(key);
  if (v == nullptr) return Status::ok();
  if (v->kind != json::Value::Kind::kString) {
    return protocolError("field '" + std::string(key) + "' must be a string");
  }
  out = v->str;
  return Status::ok();
}

}  // namespace

std::string serializeRequest(const Request& request) {
  json::Value root = json::Value::makeObject();
  root.add("schema", json::Value::makeString(std::string(kProtocolSchema)));
  root.add("op", json::Value::makeString(opName(request.op)));
  if (!request.id.empty()) root.add("id", json::Value::makeString(request.id));
  if (request.op == Op::kAnalyze) {
    root.add("source", json::Value::makeString(request.source));
    json::Value params = json::Value::makeObject();
    for (const auto& [name, value] : request.params) {
      params.add(name, json::Value::makeInt(value));
    }
    root.add("params", std::move(params));
    root.add("processors", json::Value::makeInt(request.processors));
    root.add("validate", json::Value::makeString(request.validate));
    root.add("simulate", json::Value::makeBool(request.simulate));
    root.add("budget_steps", json::Value::makeInt(request.budgetSteps));
    root.add("deadline_ms", json::Value::makeInt(request.deadlineMs));
  }
  return root.dump();
}

Expected<Request> parseRequest(std::string_view payload) {
  Expected<json::Value> doc = json::parse(payload);
  if (!doc.ok()) return doc.status();
  const json::Value& root = *doc;
  if (root.kind != json::Value::Kind::kObject) {
    return protocolError("request must be a JSON object");
  }
  const json::Value* op = root.find("op");
  if (op == nullptr || op->kind != json::Value::Kind::kString) {
    return protocolError("missing string field 'op'");
  }
  Request request;
  if (op->str == "analyze") request.op = Op::kAnalyze;
  else if (op->str == "cancel") request.op = Op::kCancel;
  else if (op->str == "stats") request.op = Op::kStats;
  else if (op->str == "ping") request.op = Op::kPing;
  else if (op->str == "shutdown") request.op = Op::kShutdown;
  else return protocolError("unknown op '" + op->str + "'");

  if (Status s = readString(root, "id", request.id); !s.isOk()) return s;
  if (Status s = readString(root, "source", request.source); !s.isOk()) return s;
  if (Status s = readString(root, "validate", request.validate); !s.isOk()) return s;
  if (const json::Value* v = root.find("simulate"); v != nullptr) {
    if (v->kind != json::Value::Kind::kBool) {
      return protocolError("field 'simulate' must be a boolean");
    }
    request.simulate = v->boolean;
  }
  if (const json::Value* v = root.find("processors"); v != nullptr) {
    if (v->kind != json::Value::Kind::kInt || v->integer < 1) {
      return protocolError("field 'processors' must be a positive integer");
    }
    request.processors = v->integer;
  }
  if (Status s = readCount(root, "budget_steps", request.budgetSteps); !s.isOk()) return s;
  if (Status s = readCount(root, "deadline_ms", request.deadlineMs); !s.isOk()) return s;
  if (const json::Value* params = root.find("params"); params != nullptr) {
    if (params->kind != json::Value::Kind::kObject) {
      return protocolError("field 'params' must be an object");
    }
    for (const auto& [name, value] : params->object) {
      if (value.kind != json::Value::Kind::kInt) {
        return protocolError("parameter '" + name + "' must be an integer");
      }
      request.params[name] = value.integer;
    }
  }
  if (request.op == Op::kCancel && request.id.empty()) {
    return protocolError("cancel requires a non-empty 'id'");
  }
  return request;
}

std::string serializeResponse(const Response& response) {
  json::Value root = json::Value::makeObject();
  root.add("schema", json::Value::makeString(std::string(kProtocolSchema)));
  root.add("id", json::Value::makeString(response.id));
  root.add("kind", json::Value::makeString(responseKindName(response.kind)));
  if (response.hasGolden()) {
    root.add("golden", json::Value::makeString(response.golden));
    if (response.planEfficiency) {
      root.add("plan_efficiency", json::Value::makeDouble(*response.planEfficiency));
    }
    if (response.naiveEfficiency) {
      root.add("naive_efficiency", json::Value::makeDouble(*response.naiveEfficiency));
    }
  }
  switch (response.kind) {
    case ResponseKind::kOk:
    case ResponseKind::kCancelled:
      break;
    case ResponseKind::kDegraded: {
      json::Value events = json::Value::makeArray();
      for (const std::string& e : response.degradation) {
        events.array.push_back(json::Value::makeString(e));
      }
      root.add("degradation", std::move(events));
      break;
    }
    case ResponseKind::kError:
      root.add("code", json::Value::makeString(response.errorCode));
      root.add("error", json::Value::makeString(response.error));
      break;
    case ResponseKind::kShed:
      root.add("retry_after_ms", json::Value::makeInt(response.retryAfterMs));
      break;
    case ResponseKind::kInfo:
      root.add("info", json::Value::makeString(response.info));
      break;
  }
  root.add("queue_us", json::Value::makeInt(response.queueUs));
  root.add("run_us", json::Value::makeInt(response.runUs));
  return root.dump();
}

Expected<Response> parseResponse(std::string_view payload) {
  Expected<json::Value> doc = json::parse(payload);
  if (!doc.ok()) return doc.status();
  const json::Value& root = *doc;
  if (root.kind != json::Value::Kind::kObject) {
    return protocolError("response must be a JSON object");
  }
  const json::Value* kind = root.find("kind");
  if (kind == nullptr || kind->kind != json::Value::Kind::kString) {
    return protocolError("missing string field 'kind'");
  }
  Response response;
  if (kind->str == "ok") response.kind = ResponseKind::kOk;
  else if (kind->str == "degraded") response.kind = ResponseKind::kDegraded;
  else if (kind->str == "error") response.kind = ResponseKind::kError;
  else if (kind->str == "shed") response.kind = ResponseKind::kShed;
  else if (kind->str == "cancelled") response.kind = ResponseKind::kCancelled;
  else if (kind->str == "info") response.kind = ResponseKind::kInfo;
  else return protocolError("unknown response kind '" + kind->str + "'");

  if (Status s = readString(root, "id", response.id); !s.isOk()) return s;
  if (Status s = readString(root, "golden", response.golden); !s.isOk()) return s;
  if (Status s = readString(root, "code", response.errorCode); !s.isOk()) return s;
  if (Status s = readString(root, "error", response.error); !s.isOk()) return s;
  if (Status s = readString(root, "info", response.info); !s.isOk()) return s;
  if (Status s = readCount(root, "retry_after_ms", response.retryAfterMs); !s.isOk()) return s;
  if (Status s = readCount(root, "queue_us", response.queueUs); !s.isOk()) return s;
  if (Status s = readCount(root, "run_us", response.runUs); !s.isOk()) return s;
  if (Status s = readNumber(root, "plan_efficiency", response.planEfficiency); !s.isOk()) {
    return s;
  }
  if (Status s = readNumber(root, "naive_efficiency", response.naiveEfficiency); !s.isOk()) {
    return s;
  }
  if (const json::Value* events = root.find("degradation"); events != nullptr) {
    if (events->kind != json::Value::Kind::kArray) {
      return protocolError("field 'degradation' must be an array");
    }
    for (const json::Value& e : events->array) {
      if (e.kind != json::Value::Kind::kString) {
        return protocolError("degradation entries must be strings");
      }
      response.degradation.push_back(e.str);
    }
  }
  return response;
}

}  // namespace ad::service
