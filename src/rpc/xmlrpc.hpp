#pragma once
/// \file xmlrpc.hpp
/// XML-RPC data model and method-call/response envelopes.
///
/// The SPHINX client and server exchange GSI-enabled XML-RPC messages
/// (paper Figure 1).  This implements the XML-RPC value system (int,
/// double, boolean, string, array, struct), <methodCall> and
/// <methodResponse> envelopes including <fault>.
///
/// There is no document model.  serialize() writes each XrValue straight
/// into one string, and parse() is a single pull pass over the bytes that
/// builds XrValues directly.  The wire bytes are a contract: the dedup
/// cache replays cached replies, the client outbox journals payloads and
/// the chaos digests hash those journals.  So the writer emits exactly the
/// compact form the envelopes have always had: a `<?xml version="1.0"?>`
/// declaration, no whitespace between elements, `<tag/>` for an element
/// with no content, the five predefined entities escaped, integers as
/// `<i8>`, doubles as `%.17g`.  The parser accepts that form, `<tag></tag>`
/// for `<tag/>`, layout whitespace between elements, bare `<value>` text
/// as a string and the `<i4>`/`<int>` tags.  It rejects everything else,
/// including attributes, duplicate struct members, nesting deeper than
/// kMaxValueDepth and number text that is not entirely a number
/// (`<i8> 7</i8>`, `<i8>12abc</i8>`, `<double>0x10</double>`).

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "common/error.hpp"

namespace sphinx::rpc {

/// Deepest nesting of values parse() accepts; a top-level param is depth
/// 1.  The deepest real message, a DAG, nests 5 deep.
inline constexpr int kMaxValueDepth = 64;

/// An XML-RPC value.  Arrays and structs nest arbitrarily.
class XrValue {
 public:
  using Array = std::vector<XrValue>;
  using Struct = std::map<std::string, XrValue>;

  XrValue() : data_(std::string{}) {}  ///< XML-RPC has no null; default ""
  XrValue(std::int64_t v) : data_(v) {}
  XrValue(int v) : data_(static_cast<std::int64_t>(v)) {}
  XrValue(std::uint64_t v) : data_(static_cast<std::int64_t>(v)) {}
  XrValue(double v) : data_(v) {}
  XrValue(bool v) : data_(v) {}
  XrValue(std::string v) : data_(std::move(v)) {}
  XrValue(const char* v) : data_(std::string(v)) {}
  XrValue(Array v) : data_(std::move(v)) {}
  XrValue(Struct v) : data_(std::move(v)) {}

  [[nodiscard]] bool is_int() const noexcept { return std::holds_alternative<std::int64_t>(data_); }
  [[nodiscard]] bool is_double() const noexcept { return std::holds_alternative<double>(data_); }
  [[nodiscard]] bool is_bool() const noexcept { return std::holds_alternative<bool>(data_); }
  [[nodiscard]] bool is_string() const noexcept { return std::holds_alternative<std::string>(data_); }
  [[nodiscard]] bool is_array() const noexcept { return std::holds_alternative<Array>(data_); }
  [[nodiscard]] bool is_struct() const noexcept { return std::holds_alternative<Struct>(data_); }

  /// Typed accessors; throw AssertionError on type mismatch.
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_double() const;  ///< accepts int too
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Struct& as_struct() const;

  /// Struct member access; throws if not a struct or key missing.
  [[nodiscard]] const XrValue& at(const std::string& key) const;
  /// The struct member `key`; nullptr if this is not a struct or has no
  /// such member.
  [[nodiscard]] const XrValue* find(const std::string& key) const;

  friend bool operator==(const XrValue& a, const XrValue& b) noexcept {
    return a.data_ == b.data_;
  }

 private:
  std::variant<std::int64_t, double, bool, std::string, Array, Struct> data_;
};

/// A <methodCall>.
struct MethodCall {
  std::string method;
  std::vector<XrValue> params;

  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] static Expected<MethodCall> parse(const std::string& xml);
};

/// XML-RPC fault payload.
struct Fault {
  std::int64_t code = 0;
  std::string message;
};

/// A <methodResponse>: either one return value or a fault.
struct MethodResponse {
  XrValue value;
  bool is_fault = false;
  Fault fault;

  [[nodiscard]] static MethodResponse success(XrValue v) {
    MethodResponse r;
    r.value = std::move(v);
    return r;
  }
  [[nodiscard]] static MethodResponse failure(std::int64_t code,
                                              std::string message) {
    MethodResponse r;
    r.is_fault = true;
    r.fault = Fault{code, std::move(message)};
    return r;
  }

  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] static Expected<MethodResponse> parse(const std::string& xml);
};

}  // namespace sphinx::rpc
