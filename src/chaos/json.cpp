#include "chaos/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

namespace sphinx::chaos {
namespace {

/// Recursive-descent parser state over the raw input text.
class Parser {
 public:
  explicit Parser(const std::string& input) : input_(input) {}

  Expected<JsonValue> parse() {
    auto value = parse_value(0);
    if (!value) return value;
    skip_ws();
    if (pos_ != input_.size()) {
      return fail("trailing characters after document");
    }
    return value;
  }

 private:
  Unexpected<Error> fail(const std::string& what) const {
    return Unexpected<Error>{Error{
        "json_parse", what + " at offset " + std::to_string(pos_)}};
  }

  void skip_ws() {
    while (pos_ < input_.size() &&
           (input_[pos_] == ' ' || input_[pos_] == '\t' ||
            input_[pos_] == '\n' || input_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool consume(char c) {
    if (pos_ < input_.size() && input_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// `depth`: containers enclosing this value.
  Expected<JsonValue> parse_value(int depth) {
    skip_ws();
    if (pos_ >= input_.size()) return fail("unexpected end of input");
    const char c = input_[pos_];
    if ((c == '{' || c == '[') && depth >= kMaxJsonDepth) {
      return fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
    }
    if (c == '{') return parse_object(depth + 1);
    if (c == '[') return parse_array(depth + 1);
    if (c == '"') return parse_string();
    if (c == 't' || c == 'f') return parse_bool();
    if (c == 'n') return parse_null();
    return parse_number();
  }

  Expected<JsonValue> parse_object(int depth) {
    ++pos_;  // '{'
    JsonValue out;
    out.type = JsonValue::Type::kObject;
    skip_ws();
    if (consume('}')) return out;
    while (true) {
      skip_ws();
      auto key = parse_string();
      if (!key) return key;
      skip_ws();
      if (!consume(':')) return fail("expected ':' in object");
      auto value = parse_value(depth);
      if (!value) return value;
      out.members.emplace_back(std::move(key->text), std::move(*value));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return out;
      return fail("expected ',' or '}' in object");
    }
  }

  Expected<JsonValue> parse_array(int depth) {
    ++pos_;  // '['
    JsonValue out;
    out.type = JsonValue::Type::kArray;
    skip_ws();
    if (consume(']')) return out;
    while (true) {
      auto value = parse_value(depth);
      if (!value) return value;
      out.array.push_back(std::move(*value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return out;
      return fail("expected ',' or ']' in array");
    }
  }

  Expected<JsonValue> parse_string() {
    if (!consume('"')) return fail("expected string");
    JsonValue out;
    out.type = JsonValue::Type::kString;
    while (pos_ < input_.size()) {
      const char c = input_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.text += c;
        continue;
      }
      if (pos_ >= input_.size()) break;
      const char esc = input_[pos_++];
      switch (esc) {
        case '"': out.text += '"'; break;
        case '\\': out.text += '\\'; break;
        case '/': out.text += '/'; break;
        case 'n': out.text += '\n'; break;
        case 't': out.text += '\t'; break;
        case 'r': out.text += '\r'; break;
        case 'b': out.text += '\b'; break;
        case 'f': out.text += '\f'; break;
        case 'u': {
          if (pos_ + 4 > input_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = input_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad \\u escape digit");
            }
          }
          // The harness only emits control-character escapes (< 0x80);
          // anything wider is replaced rather than UTF-8 encoded.
          out.text += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  Expected<JsonValue> parse_bool() {
    JsonValue out;
    out.type = JsonValue::Type::kBool;
    if (input_.compare(pos_, 4, "true") == 0) {
      out.boolean = true;
      pos_ += 4;
      return out;
    }
    if (input_.compare(pos_, 5, "false") == 0) {
      out.boolean = false;
      pos_ += 5;
      return out;
    }
    return fail("expected boolean");
  }

  Expected<JsonValue> parse_null() {
    if (input_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return JsonValue{};
    }
    return fail("expected null");
  }

  Expected<JsonValue> parse_number() {
    const char* begin = input_.data() + pos_;
    const char* end = input_.data() + input_.size();
    JsonValue out;
    out.type = JsonValue::Type::kNumber;
    const auto [ptr, ec] = std::from_chars(begin, end, out.number);
    if (ec != std::errc{} || !std::isfinite(out.number)) {
      return fail("expected finite number");
    }
    pos_ += static_cast<std::size_t>(ptr - begin);
    return out;
  }

  const std::string& input_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

Expected<JsonValue> parse_json(const std::string& input) {
  return Parser(input).parse();
}

}  // namespace sphinx::chaos
