#pragma once
/// \file analyzer.hpp
/// Token-stream / declaration-aware analysis substrate for sphinx-lint.
///
/// The original linter matched regexes against comment-stripped text;
/// that is still how the simple rules work, but the determinism rules
/// added later (ordered-escape, rng-stream-*, derived-state,
/// observe-only) need more structure:
///
///  - a real token stream (identifiers, punctuation, string literals
///    *with their values* -- the stream registry is built from
///    `seeds.stream("...")` literals, which blanked text cannot see);
///  - declaration tracking (which names are unordered containers, which
///    functions return them, which members are annotated derived);
///  - function extents (a derived member may only be mutated inside the
///    functions its annotation names);
///  - file-level acknowledgment comments (`// sphinx-lint:
///    ordered-escape-checked ...`) for audited sites.
///
/// Everything here is deliberately heuristic -- no libclang, no
/// preprocessor -- but the heuristics are chosen so a miss is quiet,
/// not noisy: the rules fire on patterns they positively recognise.

#include <cstddef>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace sphinx::lint {

// --- lexical layer ----------------------------------------------------

/// Source text with comments and string/char literals blanked out
/// (newlines preserved, so offsets map to lines), plus per-line comment
/// text so waivers and acknowledgments can be honoured.
struct Stripped {
  std::string code;                          ///< blanked text, same offsets
  std::vector<std::string> raw_lines;        ///< original lines
  std::vector<std::string> comment_lines;    ///< comment text per line
  std::vector<std::set<std::string>> allow;  ///< per-line waived rules
};

[[nodiscard]] Stripped strip(std::string_view content);

enum class TokenKind {
  kIdentifier,  ///< [A-Za-z_][A-Za-z0-9_]*
  kNumber,      ///< numeric literal (spelling, separators removed)
  kString,      ///< text = literal contents, quotes removed, escapes raw
  kChar,        ///< character literal contents
  kPunct,       ///< operator/punctuator (multi-char ops fused: :: -> <<…)
};

struct Token {
  TokenKind kind = TokenKind::kPunct;
  std::string text;
  std::size_t line = 0;  ///< 1-based
};

/// Tokenizes `content`, skipping comments.  String/char literals become
/// single tokens carrying their contents.
[[nodiscard]] std::vector<Token> tokenize(std::string_view content);

// --- declaration layer ------------------------------------------------

/// One function definition found in the token stream.  `name` is the
/// last path component (`rebuild_work_state` for
/// `DataWarehouse::rebuild_work_state`); `qualified` keeps the full
/// spelling.  Token indices are inclusive of the braces.
struct FunctionSpan {
  std::string name;
  std::string qualified;
  std::size_t first_token = 0;  ///< index of the opening `{`
  std::size_t last_token = 0;   ///< index of the matching `}`
};

/// Scans for function definitions (free, member, out-of-line) by
/// recognising `name ( params ) [const noexcept … | : init-list] {`.
/// Control-flow keywords are excluded.  Nested lambdas are attributed
/// to their enclosing named function.
[[nodiscard]] std::vector<FunctionSpan> function_spans(
    const std::vector<Token>& tokens);

/// Innermost named function containing token `index`, or nullptr.
[[nodiscard]] const FunctionSpan* enclosing_function(
    const std::vector<FunctionSpan>& spans, std::size_t index);

// --- per-file context -------------------------------------------------

/// Everything a rule pass needs to know about one translation unit.
struct FileContext {
  std::string rel_path;     ///< scan-root-relative, '/'-separated
  Stripped stripped;
  std::vector<Token> tokens;
  std::set<std::string> acks;  ///< file-level `sphinx-lint: <tag>` tags
  /// Derived-state annotations visible to this file: member name ->
  /// functions allowed to mutate it.  Contains the file's own
  /// annotations; analyze_tree() additionally injects annotations from
  /// sibling files sharing the path stem (warehouse.hpp -> warehouse.cpp).
  std::map<std::string, std::set<std::string>> derived;
  /// Nondeterminism taint for ordered-escape: names declared with an
  /// unordered (or pointer-keyed ordered) container type, and functions
  /// returning one.  Like `derived`, analyze_tree() merges these across
  /// header/source pairs so members declared in the .hpp taint loops in
  /// the .cpp.
  std::set<std::string> tainted_vars;
  std::set<std::string> tainted_fns;

  [[nodiscard]] bool allowed(std::size_t line, const std::string& rule) const;
  [[nodiscard]] bool acknowledged(const std::string& tag) const {
    return acks.contains(tag);
  }
};

/// Builds the context for one file: strip, tokenize, collect
/// acknowledgment tags and the file's own derived annotations.
[[nodiscard]] FileContext parse_file(std::string_view content,
                                     std::string rel_path);

// --- shared path scoping ----------------------------------------------

[[nodiscard]] bool is_header(const std::string& rel_path);
[[nodiscard]] bool is_library_code(const std::string& rel_path);
/// A C++ source or header, by extension.
[[nodiscard]] bool is_source_file(const std::filesystem::path& path);
/// Under the linter's own rule fixtures: deliberate violations, never
/// part of a tree under analysis (a fixture directory can still be the
/// scan root itself, which is how the per-rule ctest cases drive them).
[[nodiscard]] bool is_lint_fixture(const std::string& rel_path);
/// Files exempt from the determinism rules (the sanctioned time/rng
/// abstractions themselves, and the logger).
[[nodiscard]] bool determinism_whitelisted(const std::string& rel_path);
/// First two path components ("src/exp" for "src/exp/scenario.cpp");
/// the granularity at which rng stream names must be unique.
[[nodiscard]] std::string module_of(const std::string& rel_path);
/// 1-based line number of byte `offset` in `text`.
[[nodiscard]] std::size_t line_of(std::string_view text, std::size_t offset);

}  // namespace sphinx::lint
