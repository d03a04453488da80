/// \file test_only.cpp
/// test-only: no public name in src/ that only tests reach.
///
/// The reproduction rebuilds the grid middleware only as far as the
/// SPHINX pipeline and the paper's experiments need it.  An accessor,
/// option or mechanism that only its own tests call is code the program
/// never runs: it costs reading, it can drift from the paths that do
/// run, and the next test leans on it.  The rule reports two shapes:
///
///  - a snake_case function or data member that a src/ header declares
///    at namespace scope or in a public section, and whose identifier
///    appears in no program file outside the header's own header/source
///    pair (same path stem);
///  - a public field of a `*Config` / `*Options` struct that tests assign
///    (`.f =`, `->f =`, a designated `.f =`) and no program file does:
///    an option that only tests vary.
///
/// Program files are the .cpp/.hpp files under src/, tools/, bench/,
/// examples/ and perfbench/ of the scan root, whatever entries are being
/// linted.  tests/ and the linter's own fixtures never count.  Uses are
/// counted by token, so a name that collides with a common identifier is
/// missed quietly; a name a program file spells is never reported.  A hit
/// that must stay is waived on its declaration line with
/// `// sphinx-lint-allow(test-only): <reason>`.

#include <array>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "rule.hpp"

namespace sphinx::lint {
namespace {

namespace fs = std::filesystem;

constexpr std::array<std::string_view, 5> kProgramDirs = {
    "src", "tools", "bench", "examples", "perfbench"};

[[nodiscard]] bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

[[nodiscard]] bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

[[nodiscard]] bool snake_case(const std::string& name) {
  if (name.empty() || name[0] < 'a' || name[0] > 'z') return false;
  for (const char c : name) {
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) {
      return false;
    }
  }
  return true;
}

/// Identifiers that take a parenthesized operand without naming a
/// function being declared.
[[nodiscard]] bool paren_keyword(const std::string& name) {
  static const std::set<std::string> kKeywords = {
      "decltype", "alignas", "alignof", "sizeof", "noexcept",
      "requires", "throw",   "__attribute__"};
  return kKeywords.contains(name);
}

/// Lower-case keywords that can sit where a declarator name would.
[[nodiscard]] bool keyword(const std::string& name) {
  static const std::set<std::string> kKeywords = {
      "const",   "constexpr", "consteval", "default", "delete",
      "explicit", "final",    "inline",    "mutable", "noexcept",
      "override", "static",   "virtual",   "volatile", "return"};
  return kKeywords.contains(name);
}

/// One public name a header declares.
struct Declaration {
  std::string name;
  std::size_t line = 0;
  std::string owner;  ///< innermost class or struct; "" at namespace scope
};

enum class ScopeKind { kNamespace, kClass, kEnum, kBlock };

/// The declaration being read in a namespace or class scope: tokens
/// from the end of the previous one to its `;` (or a function body's
/// closing brace).
struct Statement {
  std::size_t tokens = 0;
  int paren = 0;
  int angle = 0;
  int bracket = 0;
  bool skip = false;         ///< using, typedef, friend, static_assert
  bool ns = false;           ///< `namespace X {`
  bool type = false;         ///< a class/struct/union/enum keyword
  bool is_enum = false;
  bool is_class = false;     ///< `class`: members default to private
  std::string type_name;
  bool function = false;     ///< `name (` seen at depth 0
  bool init_list = false;    ///< `:` after a function's parameters
  bool op = false;           ///< `operator` seen
  bool initializer = false;  ///< after `=` at depth 0
  const Token* function_name = nullptr;
  const Token* prev = nullptr;
  const Token* prev_prev = nullptr;
};

struct Scope {
  ScopeKind kind = ScopeKind::kNamespace;
  bool visible = true;    ///< every enclosing class section is public
  bool is_public = true;  ///< the current access section (classes)
  bool ends_statement = false;  ///< a function body: `}` ends its statement
  std::string name;
  Statement statement;
};

/// Lines that belong to preprocessor directives (continuations included).
[[nodiscard]] std::set<std::size_t> directive_lines(
    const std::vector<std::string>& raw_lines) {
  std::set<std::size_t> lines;
  bool continued = false;
  for (std::size_t i = 0; i < raw_lines.size(); ++i) {
    const std::string& line = raw_lines[i];
    const std::size_t first = line.find_first_not_of(" \t");
    const bool directive =
        continued || (first != std::string::npos && line[first] == '#');
    if (directive) lines.insert(i + 1);
    continued = directive && !line.empty() && line.back() == '\\';
  }
  return lines;
}

/// Scans one header for the snake_case functions and data members it
/// declares at namespace scope or in a public class section.  Types,
/// enumerators, operators, qualified out-of-line definitions and
/// everything inside a body or a non-public section are skipped.
[[nodiscard]] std::vector<Declaration> public_declarations(
    const FileContext& file) {
  std::vector<Declaration> out;
  const std::vector<Token>& t = file.tokens;
  const std::set<std::size_t> directives =
      directive_lines(file.stripped.raw_lines);
  std::vector<Scope> stack(1);

  const auto declare = [&](const Scope& scope, const Token* name) {
    if (name == nullptr || scope.statement.skip) return;
    if (!scope.visible || !scope.is_public || !snake_case(name->text) ||
        keyword(name->text)) {
      return;
    }
    out.push_back(Declaration{name->text, name->line,
                              scope.kind == ScopeKind::kClass ? scope.name
                                                              : ""});
  };
  // The declarator name: the identifier just read, unless it qualifies
  // an out-of-line definition (`Foo::bar`).
  const auto declarator = [](const Statement& st) -> const Token* {
    if (st.prev == nullptr || st.prev->kind != TokenKind::kIdentifier) {
      return nullptr;
    }
    if (st.prev_prev != nullptr && is_punct(*st.prev_prev, "::")) {
      return nullptr;
    }
    return st.prev;
  };
  const auto finish = [&](Scope& scope) {
    Statement& st = scope.statement;
    if (!st.skip && !st.type && !st.ns) {
      if (st.function) {
        if (!st.op) declare(scope, st.function_name);
      } else if (!st.initializer) {
        declare(scope, declarator(st));
      }
    }
    st = Statement{};
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    const Token& tok = t[i];
    if (directives.contains(tok.line)) continue;
    Scope& scope = stack.back();

    if (scope.kind == ScopeKind::kBlock || scope.kind == ScopeKind::kEnum) {
      if (is_punct(tok, "{")) {
        stack.push_back(Scope{ScopeKind::kBlock, false, false, false, "", {}});
      } else if (is_punct(tok, "}")) {
        const bool ends = scope.ends_statement;
        stack.pop_back();
        if (ends) finish(stack.back());
      }
      continue;
    }

    Statement& st = scope.statement;
    if (st.tokens == 0 && scope.kind == ScopeKind::kClass &&
        (is_ident(tok, "public") || is_ident(tok, "private") ||
         is_ident(tok, "protected")) &&
        i + 1 < t.size() && is_punct(t[i + 1], ":")) {
      scope.is_public = tok.text == "public";
      ++i;
      continue;
    }
    if (st.tokens == 0 && is_punct(tok, ";")) continue;
    if (is_punct(tok, "}")) {
      // The scope itself closes: a namespace ends its statement, a
      // class body returns to its `struct X {...}` statement.
      const bool ns = scope.kind == ScopeKind::kNamespace;
      stack.pop_back();
      if (stack.empty()) return out;  // unbalanced; give up quietly
      if (ns) finish(stack.back());
      continue;
    }

    const bool top = st.paren == 0 && st.angle == 0 && st.bracket == 0;
    if (tok.kind == TokenKind::kIdentifier) {
      if (st.tokens == 0 &&
          (tok.text == "using" || tok.text == "typedef" ||
           tok.text == "friend" || tok.text == "static_assert")) {
        st.skip = true;
      } else if (tok.text == "operator") {
        // Step over the operator's own symbol: `operator=`, `operator()`,
        // `operator[]`; a conversion's type is read as identifiers.
        st.op = true;
        if (i + 2 < t.size() &&
            ((is_punct(t[i + 1], "(") && is_punct(t[i + 2], ")")) ||
             (is_punct(t[i + 1], "[") && is_punct(t[i + 2], "]")))) {
          i += 2;
        } else if (i + 1 < t.size() && t[i + 1].kind == TokenKind::kPunct &&
                   !is_punct(t[i + 1], "(")) {
          ++i;
        }
      } else if (top && !st.function && tok.text == "namespace") {
        st.ns = true;
      } else if (top && !st.function && !st.initializer &&
                 (tok.text == "struct" || tok.text == "class" ||
                  tok.text == "union" || tok.text == "enum")) {
        if (!st.type) st.is_class = tok.text == "class";
        st.is_enum = st.is_enum || tok.text == "enum";
        st.type = true;
      } else if (st.type && st.type_name.empty() && top) {
        st.type_name = tok.text;
      }
    } else if (is_punct(tok, "<")) {
      if (!st.initializer && st.paren == 0 && st.prev != nullptr &&
          st.prev->kind == TokenKind::kIdentifier &&
          st.prev->text != "operator") {
        ++st.angle;
      }
    } else if (is_punct(tok, ">") && st.angle > 0) {
      --st.angle;
    } else if (is_punct(tok, ">>") && st.angle > 0) {
      st.angle = st.angle > 1 ? st.angle - 2 : 0;
    } else if (is_punct(tok, "(")) {
      if (top && !st.function && !st.initializer && !st.type && st.op) {
        st.function = true;  // an operator: never reported
      } else if (top && !st.function && !st.initializer && !st.type &&
                 st.prev != nullptr &&
                 st.prev->kind == TokenKind::kIdentifier &&
                 !paren_keyword(st.prev->text)) {
        st.function = true;
        st.function_name = declarator(st);
      }
      ++st.paren;
    } else if (is_punct(tok, ")")) {
      if (st.paren > 0) --st.paren;
    } else if (is_punct(tok, "[")) {
      if (top && !st.function && !st.initializer && !st.type) {
        declare(scope, declarator(st));
      }
      ++st.bracket;
    } else if (is_punct(tok, "]")) {
      if (st.bracket > 0) --st.bracket;
    } else if (top && is_punct(tok, "=")) {
      if (!st.function && !st.initializer && !st.type) {
        declare(scope, declarator(st));
      }
      st.initializer = true;
    } else if (top && is_punct(tok, ",")) {
      if (!st.function && !st.type) {
        if (!st.initializer) declare(scope, declarator(st));
        st.initializer = false;
      }
    } else if (top && is_punct(tok, ":")) {
      if (st.function) {
        st.init_list = true;
      } else if (!st.type && !st.initializer) {
        declare(scope, declarator(st));  // a bit-field
        st.initializer = true;
      }
    } else if (is_punct(tok, "{")) {
      if (st.ns) {
        Scope inner{ScopeKind::kNamespace, scope.visible, true, false,
                    st.type_name, {}};
        stack.push_back(std::move(inner));
      } else if (st.type && !st.function && !st.initializer) {
        const bool visible = scope.visible && scope.is_public;
        Scope inner{st.is_enum ? ScopeKind::kEnum : ScopeKind::kClass,
                    visible, !st.is_class, false, st.type_name, {}};
        stack.push_back(std::move(inner));
      } else if (st.function &&
                 !(st.init_list && st.prev != nullptr &&
                   st.prev->kind == TokenKind::kIdentifier)) {
        stack.push_back(Scope{ScopeKind::kBlock, false, false, true, "", {}});
      } else {
        // A brace initializer (`int x{0}`, `a_{a}` in an init list).
        if (!st.function && !st.initializer && !st.type) {
          declare(scope, declarator(st));
          st.initializer = true;
        }
        stack.push_back(Scope{ScopeKind::kBlock, false, false, false, "", {}});
      }
      // `stack` may have reallocated: the statement is re-read below.
      Statement& outer = stack[stack.size() - 2].statement;
      ++outer.tokens;
      outer.prev_prev = outer.prev;
      outer.prev = &tok;
      continue;
    } else if (top && is_punct(tok, ";")) {
      finish(scope);
      continue;
    }
    ++st.tokens;
    st.prev_prev = st.prev;
    st.prev = &tok;
  }
  return out;
}

/// True if t[i] is a member written through its access chain:
/// `x.f = v`, `x->f = v`, a designated `.f = v`, or a write deeper in the
/// chain (`x.f.g = v`, `x.f.push_back(v)`).
[[nodiscard]] bool member_write(const std::vector<Token>& t, std::size_t i) {
  static const std::set<std::string> kMutators = {
      "push_back", "emplace_back", "insert", "emplace", "assign", "resize",
      "clear"};
  if (i == 0 || !(is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->"))) {
    return false;
  }
  std::size_t j = i;
  while (j + 2 < t.size() &&
         (is_punct(t[j + 1], ".") || is_punct(t[j + 1], "->")) &&
         t[j + 2].kind == TokenKind::kIdentifier) {
    j += 2;
  }
  if (j + 1 >= t.size()) return false;
  if (is_punct(t[j + 1], "=")) return true;
  return j > i && is_punct(t[j + 1], "(") && kMutators.contains(t[j].text);
}

[[nodiscard]] std::string stem_of(const std::string& rel_path) {
  const std::size_t dot = rel_path.rfind('.');
  return dot == std::string::npos ? rel_path : rel_path.substr(0, dot);
}

[[nodiscard]] bool config_struct(const std::string& name) {
  return name.ends_with("Config") || name.ends_with("Options");
}

/// Every .cpp/.hpp file under `dir` of `root`, fixtures excluded, as
/// (root-relative path, tokens).  Files already parsed for the linted
/// entries are reused.
void collect_tokens(const fs::path& root, std::string_view dir,
                    const std::map<std::string, const FileContext*>& parsed,
                    std::map<std::string, std::vector<Token>>& out) {
  std::error_code ec;
  const fs::path base = root / dir;
  if (!fs::is_directory(base, ec)) return;
  for (auto it = fs::recursive_directory_iterator(base, ec);
       !ec && it != fs::recursive_directory_iterator(); ++it) {
    if (!it->is_regular_file() || !is_source_file(it->path())) continue;
    const std::string rel = fs::relative(it->path(), root).generic_string();
    if (is_lint_fixture(rel) || out.contains(rel)) continue;
    const auto known = parsed.find(rel);
    if (known != parsed.end()) {
      out.emplace(rel, known->second->tokens);
      continue;
    }
    std::ifstream in(it->path(), std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out.emplace(rel, tokenize(buffer.str()));
  }
}

}  // namespace

void check_test_only(const fs::path& root,
                     const std::vector<FileContext>& linted,
                     std::vector<Finding>& out) {
  std::map<std::string, const FileContext*> parsed;
  std::vector<std::pair<const FileContext*, std::vector<Declaration>>> headers;
  std::set<std::string> names;
  for (const FileContext& ctx : linted) {
    parsed.emplace(ctx.rel_path, &ctx);
    if (!is_library_code(ctx.rel_path) || !is_header(ctx.rel_path)) continue;
    std::vector<Declaration> decls = public_declarations(ctx);
    for (const Declaration& d : decls) names.insert(d.name);
    if (!decls.empty()) headers.emplace_back(&ctx, std::move(decls));
  }
  if (headers.empty()) return;

  std::map<std::string, std::vector<Token>> program;
  for (const std::string_view dir : kProgramDirs) {
    collect_tokens(root, dir, parsed, program);
  }
  std::map<std::string, std::vector<Token>> tests;
  collect_tokens(root, "tests", parsed, tests);

  // name -> stems of the program files that spell it; field name ->
  // whether a program file / a test assigns it as a member.
  std::map<std::string, std::set<std::string>> users;
  std::set<std::string> program_assigns;
  std::set<std::string> test_assigns;
  const auto scan = [&](const std::string& rel, const std::vector<Token>& t,
                        bool is_test) {
    const std::string stem = stem_of(rel);
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokenKind::kIdentifier || !names.contains(t[i].text)) {
        continue;
      }
      if (!is_test) users[t[i].text].insert(stem);
      if (member_write(t, i)) {
        (is_test ? test_assigns : program_assigns).insert(t[i].text);
      }
    }
  };
  for (const auto& [rel, tokens] : program) scan(rel, tokens, false);
  for (const auto& [rel, tokens] : tests) scan(rel, tokens, true);

  for (const auto& [ctx, decls] : headers) {
    const Reporter reporter(*ctx, out);
    const std::string stem = stem_of(ctx->rel_path);
    for (const Declaration& d : decls) {
      const std::string shown =
          d.owner.empty() ? d.name : d.owner + "::" + d.name;
      const auto it = users.find(d.name);
      const bool used = it != users.end() &&
                        (it->second.size() > 1 || !it->second.contains(stem));
      if (!used) {
        reporter.report(
            d.line, "test-only",
            "'" + shown + "' is public, but no program file outside " + stem +
                ".{hpp,cpp} names it (tests do not count); delete it, make "
                "it private, or waive it with the reason it stays");
      } else if (config_struct(d.owner) && test_assigns.contains(d.name) &&
                 !program_assigns.contains(d.name)) {
        reporter.report(d.line, "test-only",
                        "option '" + shown +
                            "' is set only by tests; a value no program "
                            "varies is a named constant, not a field");
      }
    }
  }
}

std::vector<Rule> test_only_rules() {
  return {
      Rule{"test-only",
           "no public src/ name that only tests reach",
           "A snake_case function or data member that a src/ header "
           "declares at namespace scope or in a public section must be "
           "named by some program file (src/, tools/, bench/, examples/, "
           "perfbench/ under the scan root) outside the header's own "
           "header/source pair; tests and lint fixtures never count.  A "
           "public field of a *Config/*Options struct must be assigned "
           "(.f =, ->f =, a designated .f =) by a program file if a test "
           "assigns it.  Types, enumerators, operators and non-public "
           "members are never reported.  Uses are counted by token, so a "
           "name that collides with a common identifier is missed quietly.  "
           "Fires from the cross-file phase (analyze_tree); waive a hit "
           "that must stay with `// sphinx-lint-allow(test-only): <reason>` "
           "on its declaration line.",
           nullptr},
  };
}

}  // namespace sphinx::lint
