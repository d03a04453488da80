#pragma once
/// \file trace_reference.hpp
/// The string trace event, kept as the tests' reference for the trace's
/// JSON Lines: an event that owns its source, subject and detail as
/// strings, rendered by the serializer the sink had before it stored
/// names as handles.  The formatting and escaping are copied here rather
/// than called, so a change to obs::format_double or obs::json_escape
/// shows up as a difference instead of moving both sides at once.  Every
/// line obs::TraceSink::to_jsonl() writes must equal the reference's
/// rendering of the same event byte for byte.

#include <charconv>
#include <cmath>
#include <string>

#include "common/time.hpp"
#include "obs/trace.hpp"

namespace sphinx::trace_reference {

inline std::string format_double(double value) {
  if (std::isinf(value)) return value > 0 ? "\"inf\"" : "\"-inf\"";
  if (std::isnan(value)) return "\"nan\"";
  char buffer[64];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return ec == std::errc{} ? std::string(buffer, ptr) : std::string("?");
}

inline std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// One event as strings: `subject` is the whole text ("job:42").
struct TraceEvent {
  SimTime at = 0.0;
  obs::TraceKind kind = obs::TraceKind::kJobTransition;
  std::string source;
  std::string subject;
  std::string detail;
  double value = 0.0;

  /// One JSON object, fixed key order, no trailing newline.
  [[nodiscard]] std::string to_json() const {
    std::string out = "{\"t\":";
    out += format_double(at);
    out += ",\"kind\":\"";
    out += obs::to_string(kind);
    out += "\",\"src\":\"";
    out += json_escape(source);
    out += "\",\"subj\":\"";
    out += json_escape(subject);
    out += "\",\"detail\":\"";
    out += json_escape(detail);
    out += "\",\"v\":";
    out += format_double(value);
    out += "}";
    return out;
  }
};

}  // namespace sphinx::trace_reference
