// Small string helpers shared by printers and the front end.
#pragma once

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace ad {

/// Join the elements of a range with a separator, using operator<< on each.
template <typename Range>
[[nodiscard]] std::string join(const Range& range, std::string_view sep) {
  std::ostringstream os;
  bool first = true;
  for (const auto& item : range) {
    if (!first) os << sep;
    os << item;
    first = false;
  }
  return os.str();
}

/// `s` as a JSON string literal, quotes included, escaped per RFC 8259
/// (other control characters as \u00XX): the one escaper of goldens,
/// metrics, traces, profiles and service messages. Inline, so the obs layer
/// needs no support library.
[[nodiscard]] inline std::string jsonQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          out += "\\u00";
          out += "0123456789abcdef"[c >> 4];
          out += "0123456789abcdef"[c & 0xf];
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
  return out;
}

/// Left-pad `s` with spaces to at least `width` characters.
[[nodiscard]] std::string padLeft(std::string_view s, std::size_t width);
/// Right-pad `s` with spaces to at least `width` characters.
[[nodiscard]] std::string padRight(std::string_view s, std::size_t width);

}  // namespace ad
