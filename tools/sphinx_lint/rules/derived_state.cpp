/// \file derived_state.cpp
/// derived-state: members annotated as derived (never journaled,
/// rebuilt from recovered tables) may only be mutated by the functions
/// their annotation names.
///
/// The warehouse keeps derived work state -- the dirty-DAG queue, the
/// live outstanding-per-site counters -- that is deliberately *not*
/// journaled: recovery rebuilds it.  The recovery-equivalence oracle
/// only holds if every mutation path is one of the declared ones; a
/// stray `outstanding_[site]++` in a new feature would desync the
/// counters from the journal without any test noticing until a chaos
/// campaign bisection.
///
/// Declaration annotation, on the member's declaration line:
///   std::set<db::RowId> dirty_rows_;  // sphinx-lint: derived(mark_dag_dirty, drain_dirty_dags, rebuild_work_state)
///
/// Annotations declared in a header are enforced in the sibling source
/// file sharing the path stem (warehouse.hpp -> warehouse.cpp) by the
/// cross-file phase in analyze_tree().

#include <cctype>
#include <set>
#include <string>

#include "rule.hpp"

namespace sphinx::lint {
namespace {

[[nodiscard]] bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

/// An assignment token: =, += or -=.
[[nodiscard]] bool assigns(const Token& t) {
  return is_punct(t, "=") || is_punct(t, "+=") || is_punct(t, "-=");
}

/// Container-mutating member functions.
[[nodiscard]] bool mutator_method(const std::string& name) {
  static const std::set<std::string> kMutators = {
      "insert",  "insert_or_assign", "emplace", "emplace_back",
      "emplace_hint", "try_emplace", "push_back", "pop_back", "push_front",
      "pop_front", "erase", "clear", "assign", "swap", "merge", "extract",
      "resize"};
  return kMutators.contains(name);
}

void rule_derived_state(const FileContext& file, const Reporter& out) {
  if (file.derived.empty()) return;
  const std::vector<Token>& t = file.tokens;
  const std::vector<FunctionSpan> spans = function_spans(t);

  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier) continue;
    const auto it = file.derived.find(t[i].text);
    if (it == file.derived.end()) continue;
    // Skip member access on some *other* object (rec.outstanding_ ...).
    if (i > 0 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->"))) {
      continue;
    }

    const Token& next = t[i + 1];
    std::string how;
    if (is_punct(next, ".") || is_punct(next, "->")) {
      if (i + 2 < t.size() && t[i + 2].kind == TokenKind::kIdentifier) {
        // A mutator call on the member, or an assignment to one of its
        // fields: a write to a field writes the member.
        if (mutator_method(t[i + 2].text)) {
          how = "." + t[i + 2].text + "()";
        } else if (i + 3 < t.size() && assigns(t[i + 3])) {
          how = "." + t[i + 2].text + " " + t[i + 3].text;
        }
      }
    } else if (is_punct(next, "[")) {
      how = "operator[]";
    } else if (assigns(next)) {
      how = next.text;
    }
    if (how.empty()) continue;

    const FunctionSpan* fn = enclosing_function(spans, i);
    // Class-scope tokens (the declaration's default initializer) are
    // not mutations.
    if (fn == nullptr) continue;
    if (it->second.contains(fn->name) || it->second.contains(fn->qualified)) {
      continue;
    }
    std::string allowed;
    for (const std::string& name : it->second) {
      if (!allowed.empty()) allowed += ", ";
      allowed += name;
    }
    out.report(t[i].line, "derived-state",
               "derived member '" + t[i].text + "' mutated (" + how +
                   ") in '" + fn->qualified +
                   "', which is not one of its declared rebuild/maintenance "
                   "functions (" +
                   allowed +
                   "); derived state must stay a function of the journaled "
                   "tables plus the declared update points, or recovery "
                   "silently diverges");
  }
}

}  // namespace

std::map<std::string, std::set<std::string>> extract_derived(
    const Stripped& stripped, const std::vector<Token>& tokens) {
  std::map<std::string, std::set<std::string>> derived;
  for (std::size_t line_idx = 0; line_idx < stripped.comment_lines.size();
       ++line_idx) {
    const std::string& comment = stripped.comment_lines[line_idx];
    const std::size_t pos = comment.find("sphinx-lint: derived(");
    if (pos == std::string::npos) continue;
    // Parse the allowed-function list.
    std::set<std::string> fns;
    std::size_t p = pos + std::string_view("sphinx-lint: derived(").size();
    std::string name;
    while (p < comment.size() && comment[p] != ')') {
      const char c = comment[p++];
      if (c == ',') {
        if (!name.empty()) fns.insert(name);
        name.clear();
      } else if (!std::isspace(static_cast<unsigned char>(c))) {
        name.push_back(c);
      }
    }
    if (!name.empty()) fns.insert(name);
    if (fns.empty()) continue;

    // The annotated member: the identifier directly before ';', '=' or
    // '{' among this line's tokens.
    const std::size_t line = line_idx + 1;
    std::string member;
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
      if (tokens[i].line != line) continue;
      if (tokens[i].kind != TokenKind::kIdentifier) continue;
      const Token& next = tokens[i + 1];
      if (is_punct(next, ";") || is_punct(next, "=") || is_punct(next, "{")) {
        member = tokens[i].text;
        break;
      }
    }
    if (!member.empty()) derived[member] = std::move(fns);
  }
  return derived;
}

std::vector<Rule> derived_state_rules() {
  return {
      Rule{"derived-state",
           "derived members are only mutated by their declared functions",
           "A member annotated `// sphinx-lint: derived(f1, f2, ...)` on "
           "its declaration line is derived state: never journaled, "
           "rebuilt on recovery.  The recovery-equivalence oracle assumes "
           "every mutation flows through the declared maintenance/rebuild "
           "functions; this rule flags container mutations (insert, erase, "
           "clear, operator[], =, += ...) of an annotated member anywhere "
           "else.  Header annotations are enforced in the sibling .cpp via "
           "the cross-file phase.",
           &rule_derived_state},
  };
}

}  // namespace sphinx::lint
