/// \file linter.cpp
/// Rule orchestration: catalog assembly, per-file driving, and the
/// cross-file phase (derived-state annotations across header/source
/// pairs, the rng stream registry and its duplicate check, test-only
/// reachability).  The rules
/// themselves live one family per translation unit under rules/.

#include "linter.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "analyzer.hpp"
#include "rule.hpp"

namespace sphinx::lint {
namespace {

[[nodiscard]] bool rule_selected(const std::vector<std::string>& only,
                                 std::string_view id) {
  if (only.empty()) return true;
  return std::find(only.begin(), only.end(), id) != only.end();
}

void run_rules(const FileContext& ctx, const std::vector<std::string>& only,
               std::vector<Finding>& findings) {
  const Reporter reporter(ctx, findings);
  for (const Rule& rule : rule_catalog()) {
    if (rule.check == nullptr) continue;
    if (!rule_selected(only, rule.id)) continue;
    rule.check(ctx, reporter);
  }
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
}

/// Path stem shared by a header/source pair: "src/core/warehouse" for
/// both warehouse.hpp and warehouse.cpp.
[[nodiscard]] std::string stem_of(const std::string& rel_path) {
  const std::size_t dot = rel_path.rfind('.');
  return dot == std::string::npos ? rel_path : rel_path.substr(0, dot);
}

[[nodiscard]] std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace

std::string Finding::to_string() const {
  return path + ":" + std::to_string(line) + ": [" + rule + "] " + message;
}

const std::vector<Rule>& rule_catalog() {
  static const std::vector<Rule> kCatalog = [] {
    std::vector<Rule> all;
    for (auto family :
         {&determinism_rules, &status_rules, &hygiene_rules,
          &ordered_escape_rules, &rng_stream_rules, &derived_state_rules,
          &observe_only_rules, &test_only_rules}) {
      for (Rule& rule : family()) all.push_back(rule);
    }
    return all;
  }();
  return kCatalog;
}

std::vector<std::pair<std::string, std::string>> rule_list() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const Rule& rule : rule_catalog()) {
    out.emplace_back(rule.id, rule.summary);
  }
  return out;
}

std::string rule_explain(const std::string& rule) {
  for (const Rule& entry : rule_catalog()) {
    if (rule == entry.id) return entry.explain;
  }
  return "";
}

std::vector<Finding> lint_source(std::string_view content,
                                 const std::string& rel_path) {
  return lint_source_rules(content, rel_path, {});
}

std::vector<Finding> lint_source_rules(std::string_view content,
                                       const std::string& rel_path,
                                       const std::vector<std::string>& only) {
  const FileContext ctx = parse_file(content, rel_path);
  std::vector<Finding> findings;
  run_rules(ctx, only, findings);
  sort_findings(findings);
  return findings;
}

TreeReport analyze_tree(const std::filesystem::path& root,
                        const std::vector<std::string>& entries,
                        const std::vector<std::string>& only) {
  namespace fs = std::filesystem;
  TreeReport report;


  std::vector<fs::path> files;
  for (const std::string& entry : entries) {
    const fs::path base = root / entry;
    std::error_code ec;
    if (fs::is_regular_file(base, ec)) {
      files.push_back(base);
    } else if (fs::is_directory(base, ec)) {
      for (auto it = fs::recursive_directory_iterator(base, ec);
           !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_regular_file() && is_source_file(it->path()) &&
            !is_lint_fixture(
                fs::relative(it->path(), root).generic_string())) {
          files.push_back(it->path());
        }
      }
    } else {
      report.errors.push_back("no such file or directory: " + base.string());
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  // Phase 1: parse everything.
  std::vector<FileContext> contexts;
  contexts.reserve(files.size());
  for (const fs::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      report.errors.push_back("cannot read " + file.string());
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string rel =
        fs::relative(file, root).generic_string();  // '/'-separated
    contexts.push_back(parse_file(buffer.str(), rel));
  }

  // Phase 2: share declaration knowledge across header/source pairs
  // (same path stem) -- derived-state annotations and ordered-escape
  // taint both live on member declarations in the .hpp but matter in
  // the loops of the .cpp.
  std::map<std::string, std::map<std::string, std::set<std::string>>> by_stem;
  std::map<std::string, std::set<std::string>> taint_vars_by_stem;
  std::map<std::string, std::set<std::string>> taint_fns_by_stem;
  for (const FileContext& ctx : contexts) {
    const std::string stem = stem_of(ctx.rel_path);
    for (const auto& [member, fns] : ctx.derived) {
      by_stem[stem][member] = fns;
    }
    taint_vars_by_stem[stem].insert(ctx.tainted_vars.begin(),
                                    ctx.tainted_vars.end());
    taint_fns_by_stem[stem].insert(ctx.tainted_fns.begin(),
                                   ctx.tainted_fns.end());
  }
  for (FileContext& ctx : contexts) {
    const std::string stem = stem_of(ctx.rel_path);
    const auto it = by_stem.find(stem);
    if (it != by_stem.end()) {
      for (const auto& [member, fns] : it->second) {
        ctx.derived.emplace(member, fns);  // own annotations win
      }
    }
    const auto vars = taint_vars_by_stem.find(stem);
    if (vars != taint_vars_by_stem.end()) {
      ctx.tainted_vars.insert(vars->second.begin(), vars->second.end());
    }
    const auto fns = taint_fns_by_stem.find(stem);
    if (fns != taint_fns_by_stem.end()) {
      ctx.tainted_fns.insert(fns->second.begin(), fns->second.end());
    }
  }

  // Phase 3: per-file rules + stream extraction.
  for (const FileContext& ctx : contexts) {
    run_rules(ctx, only, report.findings);
    for (StreamUse& use : extract_streams(ctx)) {
      report.streams.push_back(std::move(use));
    }
  }
  std::sort(report.streams.begin(), report.streams.end(),
            [](const StreamUse& a, const StreamUse& b) {
              if (a.name != b.name) return a.name < b.name;
              if (a.path != b.path) return a.path < b.path;
              return a.line < b.line;
            });

  // Phase 4: duplicate stream names across modules.
  if (rule_selected(only, "rng-stream-duplicate")) {
    std::map<std::string, std::set<std::string>> modules_of;
    for (const StreamUse& use : report.streams) {
      modules_of[use.name].insert(use.module);
    }
    std::map<std::string, const FileContext*> ctx_of;
    for (const FileContext& ctx : contexts) ctx_of[ctx.rel_path] = &ctx;
    for (const StreamUse& use : report.streams) {
      const std::set<std::string>& modules = modules_of[use.name];
      if (modules.size() < 2) continue;
      const FileContext* ctx = ctx_of[use.path];
      if (ctx != nullptr && ctx->allowed(use.line, "rng-stream-duplicate")) {
        continue;
      }
      std::string others;
      for (const std::string& m : modules) {
        if (m == use.module) continue;
        if (!others.empty()) others += ", ";
        others += m;
      }
      report.findings.push_back(Finding{
          use.path, use.line, "rng-stream-duplicate",
          "stream '" + use.name + "' is also declared in module(s) " +
              others +
              "; two modules sharing a label share a generator and "
              "entangle their draw sequences -- rename one"});
    }
  }

  // Phase 5: public src/ names that only tests reach.
  if (rule_selected(only, "test-only")) {
    check_test_only(root, contexts, report.findings);
  }

  sort_findings(report.findings);
  return report;
}

std::vector<Finding> lint_tree(const std::filesystem::path& root,
                               const std::vector<std::string>& entries,
                               std::vector<std::string>* errors) {
  TreeReport report = analyze_tree(root, entries);
  if (errors != nullptr) {
    for (std::string& error : report.errors) {
      errors->push_back(std::move(error));
    }
  }
  return std::move(report.findings);
}

std::string findings_json(const std::vector<Finding>& findings) {
  std::string out = "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i != 0) out += ",";
    out += "\n  {\"path\": \"" + json_escape(f.path) +
           "\", \"line\": " + std::to_string(f.line) + ", \"rule\": \"" +
           json_escape(f.rule) + "\", \"message\": \"" +
           json_escape(f.message) + "\"}";
  }
  out += findings.empty() ? "]\n" : "\n]\n";
  return out;
}

std::string rng_registry_markdown(const std::vector<StreamUse>& streams) {
  std::string out;
  out +=
      "# RNG stream registry\n"
      "\n"
      "Every `seeds.stream(\"...\")` label in the tree, extracted by\n"
      "`sphinx_lint --rng-registry`.  Do not edit by hand: tools/check.sh\n"
      "regenerates this file and fails on drift.\n"
      "\n"
      "A *family* (name ending in `*`) is a literal prefix plus a runtime\n"
      "suffix -- one independent stream per entity.  Stream names are\n"
      "unique per module (rule rng-stream-duplicate); at runtime, SeedTree\n"
      "throws ContractViolation if one instance hands out the same label\n"
      "twice.\n"
      "\n"
      "| stream | kind | module | declared in |\n"
      "|---|---|---|---|\n";
  std::string last_key;
  for (const StreamUse& use : streams) {
    const std::string key = use.name + "\n" + use.path;
    if (key == last_key) continue;  // several uses on one line / same file
    last_key = key;
    out += "| `" + use.name + "` | " + (use.family ? "family" : "literal") +
           " | " + use.module + " | " + use.path + " |\n";
  }
  return out;
}

}  // namespace sphinx::lint
