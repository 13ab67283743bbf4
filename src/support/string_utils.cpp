#include "support/string_utils.hpp"

namespace ad {

std::string padLeft(std::string_view s, std::size_t width) {
  std::string out(s);
  if (out.size() < width) out.insert(0, width - out.size(), ' ');
  return out;
}

std::string padRight(std::string_view s, std::size_t width) {
  std::string out(s);
  if (out.size() < width) out.append(width - out.size(), ' ');
  return out;
}

}  // namespace ad
