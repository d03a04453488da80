#pragma once
/// \file linter.hpp
/// sphinx-lint: the project's determinism / state-discipline checker.
///
/// A token-stream, declaration-aware static analyzer (deliberately no
/// libclang dependency) that enforces the rules the simulator's
/// credibility rests on.  The byte-diff oracles -- the flight-recorder
/// determinism gate, the chaos differential oracle, the lossy-network
/// gate -- all assume a fixed-seed run is byte-identical; these rules
/// prove the common ways of silently breaking that property are absent
/// from the tree:
///
///   sim-clock            no wall-clock sources; sim time comes from
///                        src/common/time.hpp via the Engine
///   sim-random           no ambient randomness (rand, random_device, …)
///   discarded-status     no `(void)` casts of call results in src/
///   naked-throw          throw only AssertionError/ContractViolation
///   iostream-include     library code logs via src/common/log.hpp
///   pragma-once          headers start with #pragma once
///   file-comment         headers carry a `/// \file` comment
///   ordered-escape       iteration over unordered containers (or
///                        pointer-keyed ordered ones) must not escape
///                        into journal writes, trace events, serialized
///                        output or accumulation order
///   rng-stream-literal   seeds.stream() labels start with a string
///                        literal so the static registry can see them
///   rng-stream-duplicate one stream name, one module
///   rng-raw              library code never constructs Rng directly;
///                        streams come from SeedTree::stream
///   derived-state        members annotated `sphinx-lint: derived(...)`
///                        are only mutated by the functions named
///   observe-only         src/obs/ never draws randomness, requests
///                        streams, schedules events or reaches into
///                        warehouse/db state
///   test-only            every public snake_case name a src/ header
///                        declares is named by a program file (src,
///                        tools, bench, examples, perfbench) outside its
///                        header/source pair, and no *Config/*Options
///                        field is assigned only by tests
///
/// Comments and string literals are stripped before regex matching, so
/// documentation may mention rand() freely.  Escapes:
///   - one line:  `// sphinx-lint-allow(<rule>): reason`
///   - one file:  `// sphinx-lint: ordered-escape-checked -- reason`
///     (audited iteration sites; the tag is rule-specific)

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace sphinx::lint {

/// One rule violation.
struct Finding {
  std::string path;     ///< scan-root-relative path, '/'-separated
  std::size_t line = 0; ///< 1-based
  std::string rule;     ///< rule identifier, e.g. "sim-clock"
  std::string message;  ///< human-readable explanation

  [[nodiscard]] std::string to_string() const;
};

/// One `seeds.stream(...)` call site, as seen by the static pass.
struct StreamUse {
  std::string name;    ///< literal label; families end in "*"
  bool family = false; ///< literal prefix + runtime suffix ("site/" + name)
  std::string path;    ///< file declaring the stream
  std::size_t line = 0;
  std::string module;  ///< uniqueness scope, e.g. "src/exp"
};

/// Result of analysing a whole tree: findings from the per-file rules
/// plus the cross-file phase, and the extracted rng stream registry.
struct TreeReport {
  std::vector<Finding> findings;
  std::vector<StreamUse> streams;  ///< sorted by (name, path, line)
  std::vector<std::string> errors; ///< IO problems
};

/// Rule identifiers with one-line descriptions, for --list-rules.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> rule_list();

/// Long-form description of one rule, or "" for an unknown id.
[[nodiscard]] std::string rule_explain(const std::string& rule);

/// Lints one translation unit given its contents and scan-root-relative
/// path (path scoping: some rules apply only under src/, and the
/// determinism whitelist names specific src/common/ files).  Runs every
/// per-file rule; cross-file rules need analyze_tree().
[[nodiscard]] std::vector<Finding> lint_source(std::string_view content,
                                               const std::string& rel_path);

/// As lint_source, but restricted to the rules named in `only` (empty =
/// all).  Unknown rule names simply never fire.
[[nodiscard]] std::vector<Finding> lint_source_rules(
    std::string_view content, const std::string& rel_path,
    const std::vector<std::string>& only);

/// Walks `entries` (directories or files, relative to `root`) and runs
/// the full analysis: per-file rules, then the cross-file phase
/// (duplicate stream names across modules; derived-state annotations
/// declared in a header enforced in the sibling source file; test-only,
/// which also reads the program directories under `root` whatever the
/// entries).  Files are visited in sorted order for deterministic
/// output.  `only` restricts the rule set (empty = all).
[[nodiscard]] TreeReport analyze_tree(
    const std::filesystem::path& root, const std::vector<std::string>& entries,
    const std::vector<std::string>& only = {});

/// Compatibility wrapper: analyze_tree's findings only.
[[nodiscard]] std::vector<Finding> lint_tree(
    const std::filesystem::path& root, const std::vector<std::string>& entries,
    std::vector<std::string>* errors = nullptr);

/// Findings as a JSON array (stable key order: path, line, rule,
/// message), for CI consumption.  Ends with a newline.
[[nodiscard]] std::string findings_json(const std::vector<Finding>& findings);

/// The rng stream registry as the committed docs/rng_streams.md
/// markdown: deterministic, sorted, suitable for byte-diffing.
[[nodiscard]] std::string rng_registry_markdown(
    const std::vector<StreamUse>& streams);

}  // namespace sphinx::lint
