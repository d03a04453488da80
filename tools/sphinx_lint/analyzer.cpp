/// \file analyzer.cpp
/// Lexical + declaration substrate shared by every rule pass.

#include "analyzer.hpp"

#include <algorithm>
#include <array>
#include <cctype>

#include "rule.hpp"

namespace sphinx::lint {
namespace {

constexpr std::array<std::string_view, 3> kDeterminismWhitelist = {
    "src/common/time.hpp",
    "src/common/rng.hpp",
    "src/common/log.cpp",
};

[[nodiscard]] bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Multi-character punctuators fused into one token, longest first.
constexpr std::array<std::string_view, 21> kMultiPunct = {
    "<<=", ">>=", "...", "::", "->", "<<", ">>", "<=", ">=", "==", "!=",
    "&&",  "||",  "+=",  "-=", "*=", "/=", "%=", "++", "--", "|=",
};

}  // namespace

bool is_header(const std::string& rel_path) {
  return rel_path.ends_with(".hpp") || rel_path.ends_with(".h") ||
         rel_path.ends_with(".hh");
}

bool is_library_code(const std::string& rel_path) {
  return rel_path.starts_with("src/");
}

bool is_source_file(const std::filesystem::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
         ext == ".h" || ext == ".hh";
}

bool is_lint_fixture(const std::string& rel_path) {
  return rel_path.find("fixtures/") != std::string::npos;
}

bool determinism_whitelisted(const std::string& rel_path) {
  return std::find(kDeterminismWhitelist.begin(), kDeterminismWhitelist.end(),
                   rel_path) != kDeterminismWhitelist.end();
}

std::string module_of(const std::string& rel_path) {
  const std::size_t first = rel_path.find('/');
  if (first == std::string::npos) return "";
  const std::size_t second = rel_path.find('/', first + 1);
  if (second == std::string::npos) return rel_path.substr(0, first);
  return rel_path.substr(0, second);
}

std::size_t line_of(std::string_view text, std::size_t offset) {
  return static_cast<std::size_t>(
             std::count(text.begin(), text.begin() + static_cast<long>(offset),
                        '\n')) +
         1;
}

Stripped strip(std::string_view content) {
  enum class Mode {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };

  Stripped out;
  out.code.reserve(content.size());
  std::string raw_line;
  std::string comment_line;
  Mode mode = Mode::kCode;
  std::string raw_close;  // for raw strings: )delim"

  auto parse_allows = [&] {
    std::set<std::string> rules;
    std::size_t pos = 0;
    while ((pos = comment_line.find("sphinx-lint-allow(", pos)) !=
           std::string::npos) {
      pos += std::string_view("sphinx-lint-allow(").size();
      std::string rule;
      while (pos < comment_line.size() && comment_line[pos] != ')') {
        const char c = comment_line[pos++];
        if (c == ',') {
          if (!rule.empty()) rules.insert(rule);
          rule.clear();
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
          rule.push_back(c);
        }
      }
      if (!rule.empty()) rules.insert(rule);
    }
    return rules;
  };

  auto end_line = [&] {
    out.raw_lines.push_back(raw_line);
    out.allow.push_back(parse_allows());
    out.comment_lines.push_back(comment_line);
    raw_line.clear();
    comment_line.clear();
  };

  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    if (c == '\n') {
      if (mode == Mode::kLineComment) mode = Mode::kCode;
      out.code.push_back('\n');
      end_line();
      continue;
    }
    raw_line.push_back(c);
    switch (mode) {
      case Mode::kCode:
        if (c == '/' && next == '/') {
          mode = Mode::kLineComment;
          out.code.append("  ");
          raw_line.push_back(next);
          ++i;
        } else if (c == '/' && next == '*') {
          mode = Mode::kBlockComment;
          out.code.append("  ");
          raw_line.push_back(next);
          ++i;
        } else if (c == 'R' && next == '"') {
          // Raw string: R"delim( ... )delim".  Scan the delimiter.
          std::string delim;
          std::size_t j = i + 2;
          while (j < content.size() && content[j] != '(' &&
                 content[j] != '\n') {
            delim.push_back(content[j++]);
          }
          if (j < content.size() && content[j] == '(') {
            raw_close = ")" + delim + "\"";
            mode = Mode::kRawString;
            for (std::size_t k = i; k <= j; ++k) out.code.push_back(' ');
            raw_line.append(content.substr(i + 1, j - i));
            i = j;
          } else {
            out.code.push_back(c);  // not a raw string after all
          }
        } else if (c == '"') {
          mode = Mode::kString;
          out.code.push_back('"');
        } else if (c == '\'') {
          // Digit separators (1'000'000) are not character literals: a
          // separator is always preceded by an alphanumeric character.
          const char prev = out.code.empty() ? '\0' : out.code.back();
          if (std::isalnum(static_cast<unsigned char>(prev)) || prev == '_') {
            out.code.push_back(' ');
          } else {
            mode = Mode::kChar;
            out.code.push_back('\'');
          }
        } else {
          out.code.push_back(c);
        }
        break;
      case Mode::kLineComment:
        comment_line.push_back(c);
        out.code.push_back(' ');
        break;
      case Mode::kBlockComment:
        if (c == '*' && next == '/') {
          mode = Mode::kCode;
          out.code.append("  ");
          raw_line.push_back(next);
          ++i;
        } else {
          comment_line.push_back(c);
          out.code.push_back(' ');
        }
        break;
      case Mode::kString:
        if (c == '\\') {
          out.code.append("  ");
          if (next != '\0' && next != '\n') {
            raw_line.push_back(next);
            ++i;
          }
        } else if (c == '"') {
          mode = Mode::kCode;
          out.code.push_back('"');
        } else {
          out.code.push_back(' ');
        }
        break;
      case Mode::kChar:
        if (c == '\\') {
          out.code.append("  ");
          if (next != '\0' && next != '\n') {
            raw_line.push_back(next);
            ++i;
          }
        } else if (c == '\'') {
          mode = Mode::kCode;
          out.code.push_back('\'');
        } else {
          out.code.push_back(' ');
        }
        break;
      case Mode::kRawString:
        if (content.compare(i, raw_close.size(), raw_close) == 0) {
          for (std::size_t k = 0; k < raw_close.size(); ++k) {
            out.code.push_back(' ');
          }
          raw_line.append(content.substr(i + 1, raw_close.size() - 1));
          i += raw_close.size() - 1;
          mode = Mode::kCode;
        } else {
          out.code.push_back(' ');
        }
        break;
    }
  }
  end_line();
  return out;
}

std::vector<Token> tokenize(std::string_view content) {
  std::vector<Token> out;
  std::size_t line = 1;
  std::size_t i = 0;
  const std::size_t n = content.size();

  auto peek = [&](std::size_t k) -> char {
    return i + k < n ? content[i + k] : '\0';
  };

  while (i < n) {
    const char c = content[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '/' && peek(1) == '/') {
      while (i < n && content[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      i += 2;
      while (i + 1 < n && !(content[i] == '*' && content[i + 1] == '/')) {
        if (content[i] == '\n') ++line;
        ++i;
      }
      i = i + 2 <= n ? i + 2 : n;
      continue;
    }
    // Raw strings.
    if (c == 'R' && peek(1) == '"') {
      std::string delim;
      std::size_t j = i + 2;
      while (j < n && content[j] != '(' && content[j] != '\n' &&
             content[j] != '"') {
        delim.push_back(content[j++]);
      }
      if (j < n && content[j] == '(') {
        const std::string close = ")" + delim + "\"";
        const std::size_t start_line = line;
        std::size_t k = j + 1;
        std::string value;
        while (k < n && content.compare(k, close.size(), close) != 0) {
          if (content[k] == '\n') ++line;
          value.push_back(content[k++]);
        }
        out.push_back(Token{TokenKind::kString, std::move(value), start_line});
        i = std::min(n, k + close.size());
        continue;
      }
    }
    // String / char literals.
    if (c == '"' || c == '\'') {
      // Digit separator: 1'000'000.
      if (c == '\'' && !out.empty() && out.back().kind == TokenKind::kNumber) {
        ++i;
        continue;
      }
      const char quote = c;
      const std::size_t start_line = line;
      std::string value;
      ++i;
      while (i < n && content[i] != quote) {
        if (content[i] == '\\' && i + 1 < n) {
          value.push_back(content[i]);
          value.push_back(content[i + 1]);
          i += 2;
          continue;
        }
        if (content[i] == '\n') ++line;
        value.push_back(content[i++]);
      }
      ++i;  // closing quote
      out.push_back(Token{quote == '"' ? TokenKind::kString : TokenKind::kChar,
                          std::move(value), start_line});
      continue;
    }
    // Identifiers / keywords.
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string text;
      while (i < n && ident_char(content[i])) text.push_back(content[i++]);
      out.push_back(Token{TokenKind::kIdentifier, std::move(text), line});
      continue;
    }
    // Numbers (loose: digits, dots, exponents, hex, separators).
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::string text;
      while (i < n &&
             (ident_char(content[i]) || content[i] == '.' ||
              content[i] == '\'' ||
              ((content[i] == '+' || content[i] == '-') && i > 0 &&
               (content[i - 1] == 'e' || content[i - 1] == 'E' ||
                content[i - 1] == 'p' || content[i - 1] == 'P') &&
               !text.empty()))) {
        if (content[i] != '\'') text.push_back(content[i]);
        ++i;
      }
      out.push_back(Token{TokenKind::kNumber, std::move(text), line});
      continue;
    }
    // Punctuation, longest-match multi-char operators first.
    bool fused = false;
    for (const std::string_view op : kMultiPunct) {
      if (content.compare(i, op.size(), op) == 0) {
        out.push_back(Token{TokenKind::kPunct, std::string(op), line});
        i += op.size();
        fused = true;
        break;
      }
    }
    if (!fused) {
      out.push_back(Token{TokenKind::kPunct, std::string(1, c), line});
      ++i;
    }
  }
  return out;
}

namespace {

[[nodiscard]] bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

/// Keywords that look like `name (...) {` but are not functions.
[[nodiscard]] bool control_keyword(const std::string& name) {
  static const std::set<std::string> kControl = {
      "if",     "for",   "while",  "switch",   "catch",  "return",
      "sizeof", "alignof", "decltype", "static_assert", "do", "else",
  };
  return kControl.contains(name);
}

/// Skips a balanced group starting at `i` (which must be the opening
/// token).  Returns the index one past the closing token, or npos.
[[nodiscard]] std::size_t skip_balanced(const std::vector<Token>& t,
                                        std::size_t i, std::string_view open,
                                        std::string_view close) {
  if (i >= t.size() || !is_punct(t[i], open)) return std::string::npos;
  int depth = 0;
  for (; i < t.size(); ++i) {
    if (is_punct(t[i], open)) ++depth;
    else if (is_punct(t[i], close) && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

}  // namespace

std::vector<FunctionSpan> function_spans(const std::vector<Token>& tokens) {
  std::vector<FunctionSpan> spans;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokenKind::kIdentifier) continue;
    if (control_keyword(tokens[i].text)) continue;
    // Gather a possibly qualified name ending at tokens[i]: walk back
    // over `A :: B :: name` and destructor tildes.
    std::size_t name_end = i;
    if (i + 1 >= tokens.size() || !is_punct(tokens[i + 1], "(")) continue;

    // Candidate: name ( params ) ... { body }
    std::size_t after_params = skip_balanced(tokens, i + 1, "(", ")");
    if (after_params == std::string::npos) continue;

    // Trailer: const/noexcept/override/final/-> type/ctor-init-list,
    // ending at the body `{` -- or bail on `;` (declaration), `=`
    // (deleted/defaulted or assignment), or operators that mean this
    // was an expression, not a definition.
    std::size_t j = after_params;
    bool in_init_list = false;
    bool found_body = false;
    while (j < tokens.size()) {
      const Token& t = tokens[j];
      if (is_punct(t, "{")) {
        found_body = true;
        break;
      }
      if (is_punct(t, ";") || is_punct(t, "=") || is_punct(t, ",") ||
          is_punct(t, ")") || is_punct(t, "}")) {
        if (!in_init_list) break;
      }
      if (is_punct(t, ":")) {
        in_init_list = true;
        ++j;
        // Ctor init list: `member (args)` or `member {args}` groups
        // separated by commas, until the body `{`.
        while (j < tokens.size()) {
          // Skip the member name (possibly qualified/templated).
          while (j < tokens.size() &&
                 (tokens[j].kind == TokenKind::kIdentifier ||
                  is_punct(tokens[j], "::") || is_punct(tokens[j], "<") ||
                  is_punct(tokens[j], ">") ||
                  tokens[j].kind == TokenKind::kNumber)) {
            ++j;
          }
          if (j >= tokens.size()) break;
          if (is_punct(tokens[j], "(")) {
            j = skip_balanced(tokens, j, "(", ")");
          } else if (is_punct(tokens[j], "{")) {
            j = skip_balanced(tokens, j, "{", "}");
          } else {
            break;
          }
          if (j == std::string::npos) break;
          if (j < tokens.size() && is_punct(tokens[j], ",")) {
            ++j;
            continue;
          }
          break;
        }
        if (j == std::string::npos || j >= tokens.size()) break;
        if (is_punct(tokens[j], "{")) found_body = true;
        break;
      }
      if (t.kind == TokenKind::kIdentifier || is_punct(t, "->") ||
          is_punct(t, "::") || is_punct(t, "<") || is_punct(t, ">") ||
          is_punct(t, "*") || is_punct(t, "&") || is_punct(t, "(")) {
        if (is_punct(t, "(")) {
          j = skip_balanced(tokens, j, "(", ")");
          if (j == std::string::npos) break;
          continue;
        }
        ++j;
        continue;
      }
      break;
    }
    if (!found_body || j == std::string::npos || j >= tokens.size()) continue;

    // Build the qualified name by walking back from name_end.
    std::string qualified = tokens[name_end].text;
    std::size_t k = name_end;
    while (k >= 2 && is_punct(tokens[k - 1], "::") &&
           tokens[k - 2].kind == TokenKind::kIdentifier) {
      qualified = tokens[k - 2].text + "::" + qualified;
      k -= 2;
    }
    if (k >= 1 && is_punct(tokens[k - 1], "~")) qualified = "~" + qualified;

    const std::size_t body_open = j;
    const std::size_t after_body = skip_balanced(tokens, body_open, "{", "}");
    if (after_body == std::string::npos) continue;
    std::string name = tokens[name_end].text;
    if (k >= 1 && is_punct(tokens[k - 1], "~")) name = "~" + name;
    spans.push_back(FunctionSpan{std::move(name), std::move(qualified),
                                 body_open, after_body - 1});
  }
  return spans;
}

const FunctionSpan* enclosing_function(const std::vector<FunctionSpan>& spans,
                                       std::size_t index) {
  const FunctionSpan* best = nullptr;
  for (const FunctionSpan& s : spans) {
    if (index < s.first_token || index > s.last_token) continue;
    if (best == nullptr ||
        s.last_token - s.first_token < best->last_token - best->first_token) {
      best = &s;
    }
  }
  return best;
}

bool FileContext::allowed(std::size_t line, const std::string& rule) const {
  if (line == 0 || line > stripped.allow.size()) return false;
  const auto& rules = stripped.allow[line - 1];
  return rules.contains(rule) || rules.contains("all");
}

FileContext parse_file(std::string_view content, std::string rel_path) {
  FileContext ctx;
  ctx.rel_path = std::move(rel_path);
  ctx.stripped = strip(content);
  ctx.tokens = tokenize(content);
  // File-level acknowledgments: `sphinx-lint: <tag>` anywhere in a
  // comment; the tag is the hyphenated word(s) right after the colon.
  for (const std::string& comment : ctx.stripped.comment_lines) {
    std::size_t pos = 0;
    while ((pos = comment.find("sphinx-lint:", pos)) != std::string::npos) {
      pos += std::string_view("sphinx-lint:").size();
      while (pos < comment.size() &&
             std::isspace(static_cast<unsigned char>(comment[pos]))) {
        ++pos;
      }
      std::string tag;
      while (pos < comment.size() &&
             (ident_char(comment[pos]) || comment[pos] == '-')) {
        tag.push_back(comment[pos++]);
      }
      if (!tag.empty()) ctx.acks.insert(tag);
    }
  }
  ctx.derived = extract_derived(ctx.stripped, ctx.tokens);
  extract_unordered(ctx.tokens, ctx.tainted_vars, ctx.tainted_fns);
  return ctx;
}

}  // namespace sphinx::lint
