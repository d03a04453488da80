#pragma once
/// \file json.hpp
/// Minimal JSON document model + parser for the chaos harness.
///
/// The repro file (`chaos_repro.json`) must round-trip: the campaign
/// writes it, the `sphinx_chaos` CLI reads it back and replays the run
/// exactly.  The repo deliberately carries no third-party dependencies,
/// so this is a small recursive-descent parser covering the JSON subset
/// the harness emits (objects, arrays, strings, finite numbers, bools,
/// null), nested at most kMaxJsonDepth deep.  Writing stays with the
/// emitting code (obs::json_escape / obs::format_double keep numbers
/// deterministic); this file only reads.

#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace sphinx::chaos {

/// One parsed JSON value.  Object member order is preserved (the harness
/// compares serializations byte-for-byte, so order matters).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> members;

  [[nodiscard]] bool is_object() const noexcept {
    return type == Type::kObject;
  }
  [[nodiscard]] bool is_array() const noexcept { return type == Type::kArray; }
  [[nodiscard]] bool is_string() const noexcept {
    return type == Type::kString;
  }

  /// Member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
};

/// Deepest nesting parse_json accepts (the XML-RPC reader's cap,
/// rpc::kMaxValueDepth): the parser recurses once per level, so an
/// unbounded document could exhaust the stack.  The repro files the
/// campaign writes nest five deep.
inline constexpr int kMaxJsonDepth = 64;

/// Parses one JSON document (trailing whitespace allowed, nothing else).
[[nodiscard]] Expected<JsonValue> parse_json(const std::string& input);

/// The value of `v` as an `Int` when it is a whole, non-negative number
/// that `Int` can hold; nullopt otherwise (casting a double outside the
/// target's range is undefined behaviour).
template <typename Int>
[[nodiscard]] std::optional<Int> whole_number(const JsonValue& v) {
  if (v.type != JsonValue::Type::kNumber || !(v.number >= 0.0) ||
      std::floor(v.number) != v.number ||
      v.number >= std::ldexp(1.0, std::numeric_limits<Int>::digits)) {
    return std::nullopt;
  }
  return static_cast<Int>(v.number);
}

/// The value of `v` when it is a finite number in [0, max] (times,
/// durations, probabilities); nullopt otherwise.
[[nodiscard]] inline std::optional<double> bounded_number(
    const JsonValue& v,
    double max = std::numeric_limits<double>::max()) noexcept {
  if (v.type != JsonValue::Type::kNumber || !(v.number >= 0.0) ||
      !(v.number <= max)) {
    return std::nullopt;
  }
  return v.number;
}

}  // namespace sphinx::chaos
