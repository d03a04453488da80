#include "db/encoding.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>

namespace sphinx::db {
namespace {

/// Reads all of `s` as a T; false on anything else.
template <typename T>
bool parse_number(std::string_view s, T& out) noexcept {
  const char* last = s.data() + s.size();
  const auto [end, error] = std::from_chars(s.data(), last, out);
  return error == std::errc{} && end == last;
}

Expected<ValueType> decode_type(std::string_view s) {
  if (s == "null") return ValueType::kNull;
  if (s == "int") return ValueType::kInt;
  if (s == "real") return ValueType::kReal;
  if (s == "text") return ValueType::kText;
  if (s == "bool") return ValueType::kBool;
  return make_error("journal_parse",
                    "unknown column type: " + std::string(s));
}

}  // namespace

void append_field(std::string& out, std::string_view s) {
  // A plain loop: find_first_of over a three-character set costs a
  // memchr per input byte, and a journaled plan payload is ~1.8 KB.
  std::size_t from = 0;
  for (std::size_t at = 0; at < s.size(); ++at) {
    const char c = s[at];
    if (c != '\\' && c != '\t' && c != '\n') continue;
    out.append(s.substr(from, at - from));
    out += '\\';
    out += c == '\t' ? 't' : c == '\n' ? 'n' : '\\';
    from = at + 1;
  }
  out.append(s.substr(from));
}

Expected<std::string> unescape_field(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  std::size_t from = 0;
  for (std::size_t at = s.find('\\'); at != std::string_view::npos;
       at = s.find('\\', from)) {
    out.append(s.substr(from, at - from));
    if (at + 1 >= s.size()) {
      return make_error("journal_parse", "dangling escape");
    }
    switch (s[at + 1]) {
      case '\\': out += '\\'; break;
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      default: return make_error("journal_parse", "unknown escape");
    }
    from = at + 2;
  }
  out.append(s.substr(from));
  return out;
}

void append_u64(std::string& out, std::uint64_t v) {
  char digits[20];
  out.append(digits,
             std::to_chars(std::begin(digits), std::end(digits), v).ptr);
}

void append_value(std::string& out, const Value& v) {
  char num[32];  // any int64, or a double as %.17g
  switch (v.type()) {
    case ValueType::kNull: out += "n:"; return;
    case ValueType::kInt:
      out += "i:";
      out.append(num, std::to_chars(num, std::end(num), v.as_int()).ptr);
      return;
    case ValueType::kReal:
      out += "r:";
      out.append(num, std::to_chars(num, std::end(num), v.as_real(),
                                    std::chars_format::general, 17)
                          .ptr);
      return;
    case ValueType::kText:
      out += "s:";
      append_field(out, v.as_text());
      return;
    case ValueType::kBool: out += v.as_bool() ? "b:1" : "b:0"; return;
  }
}

Expected<Value> decode_value(std::string_view s) {
  if (s.size() < 2 || s[1] != ':') {
    return make_error("journal_parse", "bad value encoding: " + std::string(s));
  }
  const std::string_view payload = s.substr(2);
  const auto bad = [&](const char* what) {
    return make_error("journal_parse",
                      std::string("bad ") + what + ": " + std::string(payload));
  };
  switch (s[0]) {
    case 'n':
      if (!payload.empty()) return bad("null");
      return Value();
    case 'i': {
      std::int64_t n = 0;
      if (!parse_number(payload, n)) return bad("int");
      return Value(n);
    }
    case 'r': {
      double x = 0;
      if (!parse_number(payload, x)) return bad("real");
      return Value(x);
    }
    case 's': {
      auto text = unescape_field(payload);
      if (!text) return Unexpected<Error>{text.error()};
      return Value(std::move(*text));
    }
    case 'b':
      if (payload != "0" && payload != "1") return bad("bool");
      return Value(payload == "1");
    default: return make_error("journal_parse", "unknown value tag");
  }
}

void append_column(std::string& out, const Column& column) {
  // A trailing '!' marks an indexed column, so recovery rebuilds the
  // same hash indexes the original schema declared.
  append_field(out, column.name);
  out += '=';
  out += to_string(column.type);
  if (column.indexed) out += '!';
}

Expected<Column> decode_column(std::string_view spec) {
  const auto eq = spec.rfind('=');
  if (eq == std::string_view::npos) {
    return make_error("journal_parse", "bad column spec: " + std::string(spec));
  }
  auto name = unescape_field(spec.substr(0, eq));
  if (!name) return Unexpected<Error>{name.error()};
  std::string_view type_text = spec.substr(eq + 1);
  const bool is_indexed = !type_text.empty() && type_text.back() == '!';
  if (is_indexed) type_text.remove_suffix(1);
  auto type = decode_type(type_text);
  if (!type) return Unexpected<Error>{type.error()};
  if (is_indexed && !indexable(*type)) {
    return make_error("journal_parse", "index on a " + std::string(type_text) +
                                           " column: " + std::string(spec));
  }
  return Column{std::move(*name), *type, is_indexed};
}

std::string_view take_line(std::string_view& rest) noexcept {
  const std::size_t end = rest.find('\n');
  const std::string_view line = rest.substr(0, end);
  rest.remove_prefix(end == std::string_view::npos ? rest.size() : end + 1);
  return line;
}

std::vector<std::string_view> split_fields(std::string_view line) {
  std::vector<std::string_view> fields;
  fields.reserve(1 + static_cast<std::size_t>(
                         std::count(line.begin(), line.end(), '\t')));
  for (;;) {
    const std::size_t tab = line.find('\t');
    fields.push_back(line.substr(0, tab));
    if (tab == std::string_view::npos) return fields;
    line.remove_prefix(tab + 1);
  }
}

}  // namespace sphinx::db
