#pragma once
/// \file xmlrpc.hpp
/// The XML-RPC wire: the one writer and the one reader.
///
/// The SPHINX client and server exchange GSI-enabled XML-RPC messages
/// (paper Figure 1): <methodCall> and <methodResponse> envelopes, a
/// response carrying one value or a <fault>, over the XML-RPC value
/// system (int, double, boolean, string, array, struct).
///
/// There is no document model and no value tree.  Every envelope is
/// written by an XrWriter straight into one string and read by an
/// XrReader, a single pull pass over the bytes.  Each method's params and
/// its reply go straight between their types and the bytes through these
/// two: an encoder writes members as literals, a params decoder reads
/// members off the reader and skips (while still validating) any it does
/// not know, and a reply is one value that its method's reply writer
/// writes and its reply reader reads back (clarens.hpp).  The generic
/// tree codec this replaced lives on in tests/wire_reference.hpp as the
/// reference of the differential tests, built on the reader's public
/// piecewise API.
///
/// The wire bytes are a contract: the client outbox journals payloads and
/// the chaos digests hash those journals.  So the writer emits exactly the
/// compact form the envelopes have always had: a `<?xml version="1.0"?>`
/// declaration, no whitespace between elements, `<tag/>` for an element
/// with no content, the five predefined entities escaped, integers as
/// `<i8>`, doubles to 17 significant digits (common/g17.hpp), and
/// struct members in ascending byte order of their names (the order a
/// tree of std::map structs wrote).  The
/// reader accepts that form, `<tag></tag>` for `<tag/>`, layout whitespace
/// between elements, bare `<value>` text as a string and the
/// `<i4>`/`<int>` tags.  It rejects everything else, including
/// attributes, duplicate struct members, nesting deeper than
/// kMaxValueDepth and number text that is not entirely a number
/// (`<i8> 7</i8>`, `<i8>12abc</i8>`, `<double>0x10</double>`) -- at any
/// depth, in members a typed decoder skips as much as in those it reads.

#include <array>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <string_view>

#include "common/error.hpp"

namespace sphinx::rpc {

/// Deepest nesting of values the reader accepts; a top-level param is
/// depth 1.  The deepest real message, a DAG, nests 5 deep.
inline constexpr int kMaxValueDepth = 64;

/// Writes one envelope in the compact wire form.  A call is begin_call(),
/// then per param begin_param(), one value and end_param(), then
/// end_call(); a reply is begin_response(), one value, end_response(), or
/// a whole fault(); take() hands over the bytes.  A struct is
/// begin_struct(), its members in ascending name order, end_struct(); an
/// array is begin_array(), its items, end_array().
class XrWriter {
 public:
  /// Starts the document, with room for about `reserve` bytes.
  explicit XrWriter(std::size_t reserve);

  void begin_call(std::string_view method);
  void begin_param();
  void end_param() { out_ += "</param>"; }
  /// `<params/>` when no param was written.
  void end_call();
  void begin_response() { out_ += "<methodResponse><params><param>"; }
  void end_response() { out_ += "</param></params></methodResponse>"; }
  /// A whole `<methodResponse>` carrying a fault.
  void fault(std::int64_t code, std::string_view message);

  void int_value(std::int64_t v);
  void double_value(double v);
  void bool_value(bool v);
  void string_value(std::string_view v);
  void begin_struct() { out_ += "<value><struct>"; }
  /// `<struct/>` when no member was written.
  void end_struct();
  void begin_array() { out_ += "<value><array><data>"; }
  /// `<data/>` when no item was written.
  void end_array();
  /// `<member><name>name</name>`, or `<name/>` when `name` is empty.
  /// `name` is written as is, so it must need no escaping; the member's
  /// value follows, then end_member().
  void begin_member(std::string_view name);
  void end_member() { out_ += "</member>"; }

  /// Whole members with a scalar value.
  void int_member(std::string_view name, std::int64_t v);
  void double_member(std::string_view name, double v);
  void bool_member(std::string_view name, bool v);
  void string_member(std::string_view name, std::string_view v);

  [[nodiscard]] std::string take() && { return std::move(out_); }

 private:
  void text_element(std::string_view tag, std::string_view text);
  void int_digits(std::int64_t v);

  std::string out_;
  bool params_ = false;  ///< `<params>` is open
};

/// What a `<value>` holds.
enum class XrType : std::uint8_t {
  kString,
  kInt,
  kDouble,
  kBool,
  kArray,
  kStruct,
};

/// Reads one envelope in a single pull pass.  Each read consumes one
/// construct and returns true, or records why it could not and returns
/// false; callers stop at the first false, and error() then says what
/// failed where.  As in XML, `<tag/>` reads as `<tag></tag>`.
///
/// A value is read piecewise: open() reads a scalar whole and makes its
/// content available (integer(), real(), boolean(), text()), or enters an
/// array or a struct, whose items(), known_members() or each_member()
/// must follow (or skip_open(), to validate and discard them); skip()
/// validates a whole value and keeps nothing.  Whichever way a value is
/// read, every check -- duplicate members, depth, entities, whole-field
/// numbers -- runs at the same place, so a typed decoder fails exactly
/// where, and with what, any other reader of the same bytes fails.
class XrReader {
 public:
  explicit XrReader(std::string_view in) noexcept : in_(in) {}

  /// False once a read has failed.
  [[nodiscard]] bool ok() const noexcept { return what_.empty(); }
  [[nodiscard]] Unexpected<Error> error() const;

  /// Reads the optional declaration, `<methodCall>` and a non-empty
  /// `<methodName>`, and opens `<params>` when the call has one.
  /// `method` points into the input, or into a buffer of the reader's
  /// own when the name holds entities; either way it stays valid while
  /// the reader lives.
  bool begin_call(std::string_view& method);
  /// Calls `read(i)` for each `<param>` i of the call; `read` reads its
  /// one value at depth 1.
  template <typename F>
  bool each_param(F&& read);
  /// Reads `</methodCall>`; only whitespace may follow it.
  bool end_call() { return end("methodCall"); }

  /// Reads the optional declaration and `<methodResponse>`, then either a
  /// whole `<fault>` -- `fault` set, its int faultCode in `code` and its
  /// string faultString in `message` -- or `<params><param>`, which
  /// leaves the response's one value (depth 1) to read next.
  bool begin_response(bool& fault, std::int64_t& code, std::string& message);
  /// Reads what follows: `</param></params>` after the value, then
  /// `</methodResponse>`; only whitespace may follow it.
  bool end_response();

  /// Opens the `<value>` at nesting `depth` and says what it holds.
  bool open(int depth, XrType& type);
  /// The scalar open() read last.  text() is valid until the next read.
  [[nodiscard]] std::int64_t integer() const noexcept { return integer_; }
  [[nodiscard]] double real() const noexcept { return real_; }
  [[nodiscard]] bool boolean() const noexcept { return boolean_; }
  [[nodiscard]] std::string_view text() const noexcept { return text_; }
  /// Calls `read()` for each item of the array open() entered, which
  /// reads that item's value (at the array's depth + 1); closes the value.
  template <typename F>
  bool items(F&& read);
  /// Reads the members of the struct open() entered at `depth`, whose
  /// names `known` lists in ascending order, and closes the value:
  /// `read(i)` reads known member i's value (at `depth` + 1), any other
  /// member is validated and skipped, and a repeated name fails.
  template <std::size_t N, typename F>
  bool known_members(int depth, const std::array<std::string_view, N>& known,
                     F&& read);
  /// Calls `read(name)` for each member of the struct open() entered,
  /// which reads that member's value (at the struct's depth + 1); a
  /// repeated name fails before `read` runs.  `name` is valid until
  /// `read` reads on.  Closes the value.
  template <typename F>
  bool each_member(F&& read);  // sphinx-lint-allow(test-only): the tree reader of tests/wire_reference.hpp walks structs with it
  /// Validates and discards what is left of a value open() opened at
  /// `depth` (nothing, for a scalar).
  bool skip_open(XrType type, int depth);
  /// Validates and discards one whole value.
  bool skip(int depth);

 private:
  /// Names of struct members a reader did not look up, for the
  /// duplicate check.
  using NameSet = std::set<std::string, std::less<>>;

  // The per-tag primitives are inline, so a literal tag compares in
  // place; failing is rare and out of line.
  static constexpr bool is_blank(char c) noexcept {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  }
  bool fail(std::string what);
  /// Fails on a repeated struct member `name`.
  bool duplicate(std::string_view name);
  bool fail_open(std::string_view tag);
  bool fail_close(std::string_view tag);

  void skip_ws() noexcept {
    if (empty_) return;  // the implied close tag comes first
    while (pos_ < in_.size() && is_blank(in_[pos_])) ++pos_;
  }
  /// Consumes `<tag>` or `<tag/>` if it comes next.
  bool open_tag(std::string_view tag) noexcept {
    const std::size_t n = tag.size();
    if (empty_ || in_.size() - pos_ < n + 2) return false;
    const char* p = in_.data() + pos_;
    if (p[0] != '<' || std::memcmp(p + 1, tag.data(), n) != 0) return false;
    if (p[n + 1] == '>') {
      pos_ += n + 2;
      return true;
    }
    if (p[n + 1] == '/' && in_.size() - pos_ > n + 2 && p[n + 2] == '>') {
      empty_ = true;
      pos_ += n + 3;
      return true;
    }
    return false;
  }
  bool expect_open(std::string_view tag) {
    return open_tag(tag) || fail_open(tag);
  }
  /// Consumes `</tag>` if it comes next.
  bool try_close(std::string_view tag) noexcept {
    if (empty_) {
      empty_ = false;
      return true;
    }
    const std::size_t n = tag.size();
    if (in_.size() - pos_ < n + 3) return false;
    const char* p = in_.data() + pos_;
    if (p[0] != '<' || p[1] != '/' || std::memcmp(p + 2, tag.data(), n) != 0 ||
        p[n + 2] != '>') {
      return false;
    }
    pos_ += n + 3;
    return true;
  }
  bool close(std::string_view tag) { return try_close(tag) || fail_close(tag); }
  /// Consumes the raw character data up to the next tag.
  bool chars(std::string_view& raw) {
    std::size_t lt = pos_;
    if (!empty_) {
      while (lt < in_.size() && in_[lt] != '<') ++lt;
      if (lt == in_.size()) return fail("unexpected end of input");
    }
    raw = in_.substr(pos_, lt - pos_);
    pos_ = lt;
    return true;
  }
  bool open_any(std::string_view& name) noexcept;
  /// Calls `read(name)` for each member of the struct open() entered,
  /// right after its name; `read` checks the name for a duplicate and
  /// reads the member's value.  Closes the value.
  template <typename F>
  bool members(F&& read);
  bool begin(std::string_view root);
  bool end(std::string_view root);
  bool decode(std::string_view raw, std::string& out);
  bool decode_text(std::string_view raw, std::string& buffer,
                   std::string_view& out);
  bool member_name(std::string_view& name);
  bool close_value() {
    skip_ws();
    return close("value");
  }

  std::string_view in_;
  std::size_t pos_ = 0;
  bool empty_ = false;   ///< just opened a `<tag/>`; its close is implied
  bool params_ = false;  ///< `<params>` is open (a call's, or a reply's)
  std::int64_t integer_ = 0;
  double real_ = 0.0;
  bool boolean_ = false;
  std::string_view text_;
  std::string text_buffer_;  ///< a string with entities, decoded
  std::string name_buffer_;  ///< a member name with entities, decoded
  std::string method_buffer_;  ///< a method name with entities, decoded
  std::string what_;
  std::size_t at_ = 0;
};

template <typename F>
bool XrReader::each_param(F&& read) {
  if (!params_) return true;
  for (int i = 0; !try_close("params"); ++i) {
    if (!expect_open("param") || !read(i)) return false;
    skip_ws();
    if (!close("param")) return false;
    skip_ws();
  }
  params_ = false;
  return true;
}

template <typename F>
bool XrReader::items(F&& read) {
  while (!try_close("data")) {
    if (!read()) return false;
    skip_ws();
  }
  skip_ws();
  return close("array") && close_value();
}

template <typename F>
bool XrReader::members(F&& read) {
  while (!try_close("struct")) {
    std::string_view name;
    if (!expect_open("member")) return false;
    skip_ws();
    if (!member_name(name) || !read(name)) return false;
    skip_ws();
    if (!close("member")) return false;
    skip_ws();
  }
  return close_value();
}

template <typename F>
bool XrReader::each_member(F&& read) {
  NameSet seen;
  return members([&](std::string_view name) {
    return seen.emplace(name).second ? read(name) : duplicate(name);
  });
}

template <std::size_t N, typename F>
bool XrReader::known_members(int depth,
                             const std::array<std::string_view, N>& known,
                             F&& read) {
  static_assert(N <= 64, "known member names are tracked in 64 bits");
  std::uint64_t seen = 0;
  std::size_t next = 0;  // members usually come in ascending order
  NameSet others;
  return members([&](std::string_view name) {
    std::size_t i = next;
    if (i >= N || known[i] != name) {
      for (i = 0; i < N && known[i] != name; ++i) {
      }
    }
    if (i == N) {
      return others.emplace(name).second ? skip(depth + 1) : duplicate(name);
    }
    const std::uint64_t bit = std::uint64_t{1} << i;
    if ((seen & bit) != 0) return duplicate(name);
    seen |= bit;
    next = i + 1;
    return read(i);
  });
}

}  // namespace sphinx::rpc
