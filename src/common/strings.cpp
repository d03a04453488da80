#include "common/strings.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace sphinx {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

bool parse_u64(std::string_view s, std::uint64_t& out) noexcept {
  std::uint64_t value = 0;
  const char* last = s.data() + s.size();
  const auto [end, error] = std::from_chars(s.data(), last, value);
  if (error != std::errc{} || end != last) return false;
  out = value;
  return true;
}

std::string_view trim(std::string_view s) noexcept {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  };
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

std::string format_double(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string format_duration(double s) {
  if (s < 0) return "-" + format_duration(-s);
  const auto total = static_cast<long long>(std::llround(s));
  const long long h = total / 3600;
  const long long m = (total % 3600) / 60;
  const long long sec = total % 60;
  char buf[64];
  if (h > 0) {
    std::snprintf(buf, sizeof(buf), "%lldh %02lldm %02llds", h, m, sec);
  } else if (m > 0) {
    std::snprintf(buf, sizeof(buf), "%lldm %02llds", m, sec);
  } else {
    std::snprintf(buf, sizeof(buf), "%llds", sec);
  }
  return buf;
}

}  // namespace sphinx
