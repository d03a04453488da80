#include "db/encoding.hpp"

#include <sstream>

namespace sphinx::db {

std::string escape_field(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::size_t escaped_size(const std::string& s) noexcept {
  std::size_t n = s.size();
  for (const char c : s) {
    if (c == '\\' || c == '\t' || c == '\n') ++n;
  }
  return n;
}

Expected<std::string> unescape_field(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    if (i + 1 >= s.size()) {
      return make_error("journal_parse", "dangling escape");
    }
    switch (s[++i]) {
      case '\\': out += '\\'; break;
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      default: return make_error("journal_parse", "unknown escape");
    }
  }
  return out;
}

std::string encode_value(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull: return "n:";
    case ValueType::kInt: return "i:" + std::to_string(v.as_int());
    case ValueType::kReal: {
      std::ostringstream oss;
      oss.precision(17);
      oss << v.as_real();
      return "r:" + oss.str();
    }
    case ValueType::kText: return "s:" + escape_field(v.as_text());
    case ValueType::kBool: return std::string("b:") + (v.as_bool() ? "1" : "0");
  }
  return "n:";
}

Expected<Value> decode_value(const std::string& s) {
  if (s.size() < 2 || s[1] != ':') {
    return make_error("journal_parse", "bad value encoding: " + s);
  }
  const std::string payload = s.substr(2);
  switch (s[0]) {
    case 'n': return Value();
    case 'i': {
      try {
        return Value(static_cast<std::int64_t>(std::stoll(payload)));
      } catch (const std::exception&) {
        return make_error("journal_parse", "bad int: " + payload);
      }
    }
    case 'r': {
      try {
        return Value(std::stod(payload));
      } catch (const std::exception&) {
        return make_error("journal_parse", "bad real: " + payload);
      }
    }
    case 's': {
      auto text = unescape_field(payload);
      if (!text) return Unexpected<Error>{text.error()};
      return Value(std::move(*text));
    }
    case 'b': return Value(payload == "1");
    default: return make_error("journal_parse", "unknown value tag");
  }
}

std::string encode_column(const Column& column) {
  // A trailing '!' marks an indexed column, so recovery rebuilds the
  // same hash indexes the original schema declared.
  return escape_field(column.name) + "=" + to_string(column.type) +
         (column.indexed ? "!" : "");
}

Expected<Column> decode_column(const std::string& spec) {
  const auto eq = spec.rfind('=');
  if (eq == std::string::npos) {
    return make_error("journal_parse", "bad column spec: " + spec);
  }
  auto name = unescape_field(spec.substr(0, eq));
  if (!name) return Unexpected<Error>{name.error()};
  std::string type_text = spec.substr(eq + 1);
  const bool is_indexed = !type_text.empty() && type_text.back() == '!';
  if (is_indexed) type_text.pop_back();
  auto type = decode_type(type_text);
  if (!type) return Unexpected<Error>{type.error()};
  if (is_indexed && !indexable(*type)) {
    return make_error("journal_parse", "index on a " + type_text +
                                           " column: " + spec);
  }
  return Column{std::move(*name), *type, is_indexed};
}

Expected<ValueType> decode_type(const std::string& s) {
  if (s == "null") return ValueType::kNull;
  if (s == "int") return ValueType::kInt;
  if (s == "real") return ValueType::kReal;
  if (s == "text") return ValueType::kText;
  if (s == "bool") return ValueType::kBool;
  return make_error("journal_parse", "unknown column type: " + s);
}

}  // namespace sphinx::db
