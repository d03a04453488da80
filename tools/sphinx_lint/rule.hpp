#pragma once
/// \file rule.hpp
/// The shared rule interface: every rule is one entry in a catalog, and
/// every rule family lives in its own translation unit under rules/ so
/// the catalog can grow without one file growing without bound.
///
/// A rule is per-file: it sees one FileContext and reports findings
/// through a Reporter (which silently drops findings waived with an
/// inline `sphinx-lint-allow(rule)` comment).  Cross-file analyses --
/// the rng stream registry and duplicate detection, derived-state
/// annotations declared in a header and enforced in the matching source,
/// test-only reachability -- are coordinated by analyze_tree() in
/// linter.cpp using the helpers declared at the bottom.

#include <string>
#include <vector>

#include "analyzer.hpp"
#include "linter.hpp"

namespace sphinx::lint {

/// Routes findings, honouring per-line waivers.
class Reporter {
 public:
  Reporter(const FileContext& file, std::vector<Finding>& out)
      : file_(file), out_(out) {}

  void report(std::size_t line, std::string rule, std::string message) const {
    if (file_.allowed(line, rule)) return;
    out_.push_back(
        Finding{file_.rel_path, line, std::move(rule), std::move(message)});
  }

 private:
  const FileContext& file_;
  std::vector<Finding>& out_;
};

/// One catalog entry.  `check` may be null for rules that only fire
/// from the cross-file phase (rng-stream-duplicate).
struct Rule {
  const char* id;
  const char* summary;  ///< one line, for --list-rules
  const char* explain;  ///< several sentences, for --explain
  void (*check)(const FileContext&, const Reporter&);
};

/// The full catalog, in stable display order.
[[nodiscard]] const std::vector<Rule>& rule_catalog();

// Per-family registration, one function per rules/ translation unit.
[[nodiscard]] std::vector<Rule> determinism_rules();    // sim-clock, sim-random
[[nodiscard]] std::vector<Rule> status_rules();         // discarded-status, naked-throw
[[nodiscard]] std::vector<Rule> hygiene_rules();        // iostream-include, pragma-once, file-comment
[[nodiscard]] std::vector<Rule> ordered_escape_rules(); // ordered-escape
[[nodiscard]] std::vector<Rule> rng_stream_rules();     // rng-stream-literal, rng-stream-duplicate, rng-raw
[[nodiscard]] std::vector<Rule> derived_state_rules();  // derived-state
[[nodiscard]] std::vector<Rule> observe_only_rules();   // observe-only
[[nodiscard]] std::vector<Rule> test_only_rules();      // test-only

// --- cross-file extraction helpers ------------------------------------

/// Every `seeds.stream(...)` use in one file (implemented with the
/// rng-stream rules so the registry and the rule agree byte-for-byte on
/// what counts as a stream).
[[nodiscard]] std::vector<StreamUse> extract_streams(const FileContext& file);

/// Derived-state annotations declared in one file: member -> functions
/// allowed to mutate it.  Parsed from `// sphinx-lint: derived(f1, f2)`
/// comments on member declaration lines.
[[nodiscard]] std::map<std::string, std::set<std::string>> extract_derived(
    const Stripped& stripped, const std::vector<Token>& tokens);

/// test-only's cross-file pass: reports each public snake_case name a
/// src/ header among `linted` declares that no program file under
/// `root` (src, tools, bench, examples, perfbench; fixtures excluded)
/// names outside the header's own pair, and each *Config/*Options field
/// that only files under tests/ assign.
void check_test_only(const std::filesystem::path& root,
                     const std::vector<FileContext>& linted,
                     std::vector<Finding>& out);

/// Unordered-container declarations in one token stream, for the
/// ordered-escape taint (names + functions returning such types).
void extract_unordered(const std::vector<Token>& tokens,
                       std::set<std::string>& vars,
                       std::set<std::string>& fns);

}  // namespace sphinx::lint
