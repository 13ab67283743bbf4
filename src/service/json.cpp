#include "service/json.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/string_utils.hpp"

namespace ad::service::json {

Value Value::makeBool(bool b) {
  Value v;
  v.kind = Kind::kBool;
  v.boolean = b;
  return v;
}

Value Value::makeInt(std::int64_t i) {
  Value v;
  v.kind = Kind::kInt;
  v.integer = i;
  return v;
}

Value Value::makeDouble(double d) {
  Value v;
  v.kind = Kind::kDouble;
  v.number = d;
  return v;
}

Value Value::makeString(std::string s) {
  Value v;
  v.kind = Kind::kString;
  v.str = std::move(s);
  return v;
}

Value Value::makeArray() {
  Value v;
  v.kind = Kind::kArray;
  return v;
}

Value Value::makeObject() {
  Value v;
  v.kind = Kind::kObject;
  return v;
}

void Value::add(std::string key, Value v) {
  object.emplace_back(std::move(key), std::move(v));
}

const Value* Value::find(std::string_view key) const noexcept {
  const Value* hit = nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) hit = &v;
  }
  return hit;
}

std::int64_t Value::asInt(std::int64_t fallback) const noexcept {
  return kind == Kind::kInt ? integer : fallback;
}

std::string Value::dump() const {
  switch (kind) {
    case Kind::kNull: return "null";
    case Kind::kBool: return boolean ? "true" : "false";
    case Kind::kInt: return std::to_string(integer);
    case Kind::kDouble: {
      // %.17g round-trips every finite double (the simulated efficiencies
      // of an analyze response); non-finite values have no JSON spelling.
      if (!std::isfinite(number)) return "null";
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", number);
      return buf;
    }
    case Kind::kString: return jsonQuote(str);
    case Kind::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < array.size(); ++i) {
        if (i > 0) out += ',';
        out += array[i].dump();
      }
      out += ']';
      return out;
    }
    case Kind::kObject: {
      std::string out = "{";
      for (std::size_t i = 0; i < object.size(); ++i) {
        if (i > 0) out += ',';
        out += jsonQuote(object[i].first);
        out += ':';
        out += object[i].second.dump();
      }
      out += '}';
      return out;
    }
  }
  return "null";
}

namespace {

/// Recursive-descent parser over a bounded input. Every recursion level and
/// every container element is charged against the Limits before it is built.
class Parser {
 public:
  Parser(std::string_view text, const Limits& limits) : text_(text), limits_(limits) {}

  Expected<Value> run() {
    skipWs();
    Value v;
    if (Status s = parseValue(v, 0); !s.isOk()) return s;
    skipWs();
    if (pos_ != text_.size()) return fail("trailing bytes after JSON document");
    return v;
  }

 private:
  Status fail(std::string message) const {
    return Status(ErrorCode::kInvalidArgument,
                  "json: " + std::move(message) + " at byte " + std::to_string(pos_));
  }

  void skipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status chargeElement() {
    if (++elements_ > limits_.maxElements) return fail("too many elements");
    return Status::ok();
  }

  Status parseValue(Value& out, std::size_t depth) {  // NOLINT(misc-no-recursion)
    if (depth > limits_.maxDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parseObject(out, depth);
      case '[': return parseArray(out, depth);
      case '"': {
        out.kind = Value::Kind::kString;
        return parseString(out.str);
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          out = Value::makeBool(true);
          return Status::ok();
        }
        return fail("invalid literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          out = Value::makeBool(false);
          return Status::ok();
        }
        return fail("invalid literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          out = Value::makeNull();
          return Status::ok();
        }
        return fail("invalid literal");
      default: return parseNumber(out);
    }
  }

  Status parseObject(Value& out, std::size_t depth) {  // NOLINT(misc-no-recursion)
    ++pos_;  // '{'
    out = Value::makeObject();
    skipWs();
    if (eat('}')) return Status::ok();
    while (true) {
      skipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected object key");
      std::string key;
      if (Status s = parseString(key); !s.isOk()) return s;
      skipWs();
      if (!eat(':')) return fail("expected ':'");
      skipWs();
      if (Status s = chargeElement(); !s.isOk()) return s;
      Value member;
      if (Status s = parseValue(member, depth + 1); !s.isOk()) return s;
      out.add(std::move(key), std::move(member));
      skipWs();
      if (eat(',')) continue;
      if (eat('}')) return Status::ok();
      return fail("expected ',' or '}'");
    }
  }

  Status parseArray(Value& out, std::size_t depth) {  // NOLINT(misc-no-recursion)
    ++pos_;  // '['
    out = Value::makeArray();
    skipWs();
    if (eat(']')) return Status::ok();
    while (true) {
      skipWs();
      if (Status s = chargeElement(); !s.isOk()) return s;
      Value element;
      if (Status s = parseValue(element, depth + 1); !s.isOk()) return s;
      out.array.push_back(std::move(element));
      skipWs();
      if (eat(',')) continue;
      if (eat(']')) return Status::ok();
      return fail("expected ',' or ']'");
    }
  }

  Status parseString(std::string& out) {
    ++pos_;  // '"'
    out.clear();
    while (true) {
      if (pos_ >= text_.size()) return fail("unterminated string");
      if (out.size() > limits_.maxStringBytes) return fail("string too long");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::ok();
      }
      if (c < 0x20) return fail("unescaped control character in string");
      if (c != '\\') {
        out += static_cast<char>(c);
        ++pos_;
        continue;
      }
      ++pos_;  // '\'
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t cp = 0;
          if (Status s = parseHex4(cp); !s.isOk()) return s;
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: need a pair
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
              return fail("unpaired surrogate");
            }
            pos_ += 2;
            std::uint32_t low = 0;
            if (Status s = parseHex4(low); !s.isOk()) return s;
            if (low < 0xDC00 || low > 0xDFFF) return fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired surrogate");
          }
          appendUtf8(out, cp);
          break;
        }
        default: return fail("invalid escape");
      }
    }
  }

  Status parseHex4(std::uint32_t& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      out <<= 4;
      if (c >= '0' && c <= '9') out |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') out |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') out |= static_cast<std::uint32_t>(c - 'A' + 10);
      else return fail("invalid \\u escape");
    }
    pos_ += 4;
    return Status::ok();
  }

  static void appendUtf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Status parseNumber(Value& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      pos_ = start;
      return fail("invalid value");
    }
    // Leading-zero rule: "0" may not be followed by another digit.
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() && text_[pos_ + 1] >= '0' &&
        text_[pos_ + 1] <= '9') {
      return fail("leading zero");
    }
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return fail("digit required after '.'");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return fail("digit required in exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (integral) {
      std::int64_t v = 0;
      const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), v);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        out = Value::makeInt(v);
        return Status::ok();
      }
      // Out of int64 range: fall through to double.
    }
    const std::string copy(token);  // strtod needs a terminator
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(copy.c_str(), &end);
    if (end != copy.c_str() + copy.size() || errno == ERANGE || !std::isfinite(d)) {
      return fail("number out of range");
    }
    out.kind = Value::Kind::kDouble;
    out.number = d;
    return Status::ok();
  }

  std::string_view text_;
  const Limits& limits_;
  std::size_t pos_ = 0;
  std::size_t elements_ = 0;
};

}  // namespace

Expected<Value> parse(std::string_view text, const Limits& limits) {
  if (text.size() > limits.maxBytes) {
    return Status(ErrorCode::kInvalidArgument,
                  "json: document of " + std::to_string(text.size()) +
                      " bytes exceeds the " + std::to_string(limits.maxBytes) + "-byte cap");
  }
  return Parser(text, limits).run();
}

}  // namespace ad::service::json
