// Minimal JSON reader/writer for the analysis service's wire protocol.
//
// The service frames requests and responses as JSON payloads
// (service/protocol.hpp); this parser is the hostile-input boundary, so it is
// written defensively rather than generally:
//
//  - hard caps on input size, nesting depth, and container population, all
//    enforced *during* parsing (a 1 MiB payload of "[[[[..." fails fast
//    instead of exhausting the stack or the heap);
//  - strict JSON only — no comments, no trailing commas, no NaN/Infinity,
//    no unescaped control characters in strings;
//  - never throws on malformed input: parse() returns Expected with a
//    kInvalidArgument Status naming the byte offset of the defect.
//
// It is deliberately not a general-purpose library: documents are small
// control-plane messages (the largest field is an embedded ADL source or a
// golden artifact, both strings), so a plain tree of Values is sufficient and
// object keys keep insertion order for byte-stable serialization.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/status.hpp"

namespace ad::service::json {

/// Parser caps. Defaults are comfortable for protocol messages and far below
/// anything that could wedge the server.
struct Limits {
  std::size_t maxBytes = 4u << 20;    ///< max input size parse() accepts
  std::size_t maxDepth = 32;          ///< max array/object nesting
  std::size_t maxElements = 1 << 16;  ///< max total array elements + object members
  std::size_t maxStringBytes = 4u << 20;  ///< max decoded length of one string
};

/// One JSON value: a tagged tree. Members are public — this is a transport
/// struct, not an abstraction; protocol.cpp pattern-matches on it directly.
class Value {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  std::int64_t integer = 0;   ///< valid when kind == kInt
  double number = 0.0;        ///< valid when kind == kDouble
  std::string str;            ///< valid when kind == kString
  std::vector<Value> array;   ///< valid when kind == kArray
  /// Object members in insertion order (duplicate keys: last one wins in
  /// find(), but all are kept so serialization is faithful).
  std::vector<std::pair<std::string, Value>> object;

  [[nodiscard]] static Value makeNull() { return Value{}; }
  [[nodiscard]] static Value makeBool(bool b);
  [[nodiscard]] static Value makeInt(std::int64_t v);
  [[nodiscard]] static Value makeDouble(double d);
  [[nodiscard]] static Value makeString(std::string s);
  [[nodiscard]] static Value makeArray();
  [[nodiscard]] static Value makeObject();

  /// Appends a member to an object under construction.
  void add(std::string key, Value v);

  /// Last member with this key, or nullptr. Only meaningful on objects.
  [[nodiscard]] const Value* find(std::string_view key) const noexcept;

  // Typed accessors: the value if it has exactly that kind, else fallback.
  [[nodiscard]] std::int64_t asInt(std::int64_t fallback = 0) const noexcept;

  /// Compact serialization (no whitespace); object members in stored order,
  /// strings escaped per RFC 8259 (control characters as \u00XX).
  [[nodiscard]] std::string dump() const;
};

/// Parses one JSON document (the entire input must be consumed). Malformed or
/// cap-exceeding input yields kInvalidArgument with the byte offset.
[[nodiscard]] Expected<Value> parse(std::string_view text, const Limits& limits = {});

}  // namespace ad::service::json
