// In-process coverage for every sphinx-lint rule (tools/sphinx_lint).
// Each case feeds a snippet through lint_source and checks which rules
// fire; the fixture trees under tools/sphinx_lint/fixtures are exercised
// end-to-end by the lint.fixtures_* ctest cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "chaos/json.hpp"
#include "linter.hpp"

namespace {

using sphinx::lint::Finding;
using sphinx::lint::lint_source;

/// A scratch tree on disk for analyze_tree() cases (cross-file taint,
/// duplicate streams, the registry).  Each test uses its own name:
/// gtest_discover_tests runs cases as separate processes, possibly in
/// parallel.
class TempTree {
 public:
  explicit TempTree(const std::string& name)
      : root_(std::filesystem::temp_directory_path() /
              ("sphinx_lint_test_" + name)) {
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  ~TempTree() { std::filesystem::remove_all(root_); }

  void write(const std::string& rel, const std::string& content) const {
    const std::filesystem::path p = root_ / rel;
    std::filesystem::create_directories(p.parent_path());
    std::ofstream(p, std::ios::binary) << content;
  }

  [[nodiscard]] const std::filesystem::path& root() const { return root_; }

 private:
  std::filesystem::path root_;
};

std::vector<std::string> rules_fired(const std::string& source,
                                     const std::string& path) {
  std::vector<std::string> out;
  for (const Finding& f : lint_source(source, path)) out.push_back(f.rule);
  return out;
}

bool fired(const std::vector<std::string>& rules, const std::string& rule) {
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

TEST(SphinxLint, CleanSourcePasses) {
  const std::string src = R"cpp(
    int add(int a, int b) { return a + b; }
  )cpp";
  EXPECT_TRUE(lint_source(src, "src/core/foo.cpp").empty());
}

TEST(SphinxLint, FlagsWallClocks) {
  const auto rules = rules_fired(
      "auto t = std::chrono::system_clock::now();\n"
      "auto u = std::chrono::steady_clock::now();\n"
      "auto v = time(nullptr);\n"
      "auto w = std::time(NULL);\n",
      "src/sim/foo.cpp");
  EXPECT_EQ(rules.size(), 4u);
  EXPECT_TRUE(fired(rules, "sim-clock"));
}

TEST(SphinxLint, MemberNamedTimeIsNotAClock) {
  const auto rules = rules_fired(
      "double t = event.time();\n"
      "double u = ptr->time();\n"
      "double v = compute_time(job);\n",
      "src/sim/foo.cpp");
  EXPECT_FALSE(fired(rules, "sim-clock"));
}

TEST(SphinxLint, FlagsAmbientRandomness) {
  const auto rules = rules_fired(
      "int a = rand();\n"
      "srand(42);\n"
      "std::random_device rd;\n",
      "tests/foo_test.cpp");
  EXPECT_EQ(rules.size(), 3u);
  EXPECT_TRUE(fired(rules, "sim-random"));
}

TEST(SphinxLint, WhitelistExemptsRngAndTimeHeaders) {
  const std::string src = "std::random_device rd;\n";
  EXPECT_TRUE(fired(rules_fired(src, "src/common/strings.cpp"), "sim-random"));
  EXPECT_FALSE(fired(rules_fired(src, "src/common/rng.hpp"), "sim-random"));
  EXPECT_FALSE(fired(rules_fired(src, "src/common/time.hpp"), "sim-random"));
}

TEST(SphinxLint, CommentsAndStringsAreStripped) {
  const auto rules = rules_fired(
      "// rand() and system_clock in a comment\n"
      "/* srand(1); time(nullptr); */\n"
      "const char* s = \"rand() inside a string\";\n"
      "const char* r = R\"(random_device in a raw string)\";\n",
      "src/core/foo.cpp");
  EXPECT_TRUE(rules.empty());
}

TEST(SphinxLint, DigitSeparatorsAreNotCharLiterals) {
  // A bad tokenizer would treat 1'000'000 as opening a char literal and
  // blank out the rand() call that follows.
  const auto rules = rules_fired(
      "long big = 1'000'000;\n"
      "int bad = rand();\n",
      "src/core/foo.cpp");
  EXPECT_TRUE(fired(rules, "sim-random"));
}

TEST(SphinxLint, FlagsDiscardedCallResults) {
  const auto rules = rules_fired(
      "(void)se->store(user, lfn, bytes);\n"
      "(void)dag.validate();\n",
      "src/data/foo.cpp");
  EXPECT_EQ(rules.size(), 2u);
  EXPECT_TRUE(fired(rules, "discarded-status"));
}

TEST(SphinxLint, VoidCastOfVariableIsAllowed) {
  const auto rules = rules_fired(
      "(void)unused_parameter;\n"
      "int f(void);\n",
      "src/core/foo.cpp");
  EXPECT_FALSE(fired(rules, "discarded-status"));
}

TEST(SphinxLint, GtestThrowAssertionsAreExempt) {
  const auto rules = rules_fired(
      "EXPECT_THROW((void)e.value(), AssertionError);\n"
      "ASSERT_THROW((void)s.error(), AssertionError);\n",
      "src/core/foo.cpp");
  EXPECT_FALSE(fired(rules, "discarded-status"));
}

TEST(SphinxLint, DiscardedStatusIsLibraryScoped) {
  // Tests and benches discard handles (submission ids, selector picks)
  // deliberately; the rule only polices library code.
  const std::string src = "(void)site.submit(job, nullptr);\n";
  EXPECT_TRUE(fired(rules_fired(src, "src/grid/foo.cpp"),
                    "discarded-status"));
  EXPECT_FALSE(fired(rules_fired(src, "tests/foo_test.cpp"),
                     "discarded-status"));
  EXPECT_FALSE(fired(rules_fired(src, "bench/foo.cpp"), "discarded-status"));
}

TEST(SphinxLint, FlagsNakedThrows) {
  const auto rules = rules_fired(
      "void f() { throw std::runtime_error(\"boom\"); }\n"
      "void g() { throw 42; }\n",
      "src/core/foo.cpp");
  EXPECT_EQ(rules.size(), 2u);
  EXPECT_TRUE(fired(rules, "naked-throw"));
}

TEST(SphinxLint, AssertionErrorThrowsAreLegal) {
  const auto rules = rules_fired(
      "throw AssertionError(\"bad state\");\n"
      "throw ::sphinx::AssertionError(\"bad state\");\n"
      "throw ::sphinx::ContractViolation(\"broken invariant\");\n"
      "try { f(); } catch (...) { throw; }\n",
      "src/core/foo.cpp");
  EXPECT_TRUE(rules.empty());
}

TEST(SphinxLint, FlagsIostreamInLibraryCodeOnly) {
  const std::string src = "#include <iostream>\n";
  EXPECT_TRUE(fired(rules_fired(src, "src/core/foo.cpp"), "iostream-include"));
  EXPECT_FALSE(fired(rules_fired(src, "tests/foo_test.cpp"),
                     "iostream-include"));
  EXPECT_FALSE(fired(rules_fired(src, "bench/foo.cpp"), "iostream-include"));
}

TEST(SphinxLint, HeaderHygiene) {
  const auto bad = rules_fired("#ifndef GUARD\n#define GUARD\n#endif\n",
                               "src/core/foo.hpp");
  EXPECT_TRUE(fired(bad, "pragma-once"));
  EXPECT_TRUE(fired(bad, "file-comment"));

  const auto good = rules_fired(
      "#pragma once\n/// \\file foo.hpp\n/// Does things.\n",
      "src/core/foo.hpp");
  EXPECT_TRUE(good.empty());

  // Sources are not held to header hygiene.
  EXPECT_TRUE(rules_fired("int x;\n", "src/core/foo.cpp").empty());
}

TEST(SphinxLint, InlineAllowWaivesARule) {
  const auto rules = rules_fired(
      "int a = rand();  // sphinx-lint-allow(sim-random): seeding torture\n"
      "int b = rand();\n",
      "src/core/foo.cpp");
  EXPECT_EQ(rules.size(), 1u);  // only the unwaived line fires
}

TEST(SphinxLint, FindingsCarryPathLineAndRule) {
  const auto findings = lint_source("int x;\nint y = rand();\n",
                                    "src/core/foo.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].path, "src/core/foo.cpp");
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_EQ(findings[0].rule, "sim-random");
  EXPECT_NE(findings[0].to_string().find("src/core/foo.cpp:2:"),
            std::string::npos);
}

// --- ordered-escape ---------------------------------------------------

TEST(SphinxLint, OrderedEscapeFlagsHashIterationIntoSequence) {
  const auto rules = rules_fired(
      "std::unordered_map<int, double> active_;\n"
      "void f(std::vector<int>& out) {\n"
      "  for (const auto& [id, rate] : active_) out.push_back(id);\n"
      "}\n",
      "src/core/foo.cpp");
  EXPECT_TRUE(fired(rules, "ordered-escape"));
}

TEST(SphinxLint, OrderedEscapeFlagsAccumulationAndStreaming) {
  const auto rules = rules_fired(
      "std::unordered_set<int> ids_;\n"
      "double g() {\n"
      "  double total = 0.0;\n"
      "  for (int id : ids_) total += weight(id);\n"
      "  return total;\n"
      "}\n",
      "src/core/foo.cpp");
  EXPECT_TRUE(fired(rules, "ordered-escape"));
}

TEST(SphinxLint, OrderedEscapeIgnoresCommutativeLoops) {
  const auto rules = rules_fired(
      "std::unordered_map<int, double> active_;\n"
      "int count_hot() {\n"
      "  int hot = 0;\n"
      "  for (const auto& [id, rate] : active_) {\n"
      "    if (rate > 1.0) ++hot;\n"
      "  }\n"
      "  return hot;\n"
      "}\n",
      "src/core/foo.cpp");
  EXPECT_FALSE(fired(rules, "ordered-escape"));
}

TEST(SphinxLint, OrderedEscapeFlagsPointerKeyedOrderedMap) {
  // std::map keyed by pointer iterates in address order -- just as
  // unstable across runs as a hash container.
  const auto rules = rules_fired(
      "std::map<const Site*, int> by_site_;\n"
      "void dump(std::vector<int>& out) {\n"
      "  for (const auto& [site, n] : by_site_) out.push_back(n);\n"
      "}\n",
      "src/core/foo.cpp");
  EXPECT_TRUE(fired(rules, "ordered-escape"));
}

TEST(SphinxLint, OrderedEscapeValueKeyedMapIsClean) {
  const auto rules = rules_fired(
      "std::map<int, int> by_id_;\n"
      "void dump(std::vector<int>& out) {\n"
      "  for (const auto& [id, n] : by_id_) out.push_back(n);\n"
      "}\n",
      "src/core/foo.cpp");
  EXPECT_FALSE(fired(rules, "ordered-escape"));
}

TEST(SphinxLint, OrderedEscapeAckWaivesTheFile) {
  const auto rules = rules_fired(
      "// sphinx-lint: ordered-escape-checked -- sink is re-sorted below\n"
      "std::unordered_map<int, double> active_;\n"
      "void f(std::vector<int>& out) {\n"
      "  for (const auto& [id, rate] : active_) out.push_back(id);\n"
      "}\n",
      "src/core/foo.cpp");
  EXPECT_FALSE(fired(rules, "ordered-escape"));
}

TEST(SphinxLint, OrderedEscapeTaintCrossesHeaderSourcePairs) {
  // The gridftp shape: the container is a member declared in the
  // header, the escaping loop lives in the .cpp.
  TempTree tree("cross_taint");
  tree.write("src/core/track.hpp",
             "#pragma once\n/// \\file track.hpp\n/// Fixture.\n"
             "#include <unordered_map>\n"
             "struct T { std::unordered_map<int, double> active_; };\n");
  tree.write("src/core/track.cpp",
             "/// \\file track.cpp\n"
             "#include \"track.hpp\"\n"
             "void T_dump(T& t, std::vector<int>& out) {\n"
             "  for (const auto& [id, r] : t.active_) out.push_back(id);\n"
             "}\n");
  const auto report = sphinx::lint::analyze_tree(tree.root(), {"src"},
                                                 {"ordered-escape"});
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].path, "src/core/track.cpp");
  EXPECT_EQ(report.findings[0].rule, "ordered-escape");
}

// --- rng stream discipline --------------------------------------------

TEST(SphinxLint, RngStreamLabelMustStartWithLiteral) {
  EXPECT_TRUE(fired(rules_fired("auto r = seeds.stream(label);\n",
                                "src/core/foo.cpp"),
                    "rng-stream-literal"));
  EXPECT_TRUE(fired(
      rules_fired("auto r = seeds.stream(\"site\" + name);\n",
                  "src/core/foo.cpp"),
      "rng-stream-literal"));
  EXPECT_FALSE(fired(rules_fired("auto r = seeds.stream(\"bus\");\n",
                                 "src/core/foo.cpp"),
                     "rng-stream-literal"));
  EXPECT_FALSE(fired(
      rules_fired("auto r = seeds.stream(\"site/\" + name);\n",
                  "src/core/foo.cpp"),
      "rng-stream-literal"));
}

TEST(SphinxLint, RngRawConstructionSpellings) {
  EXPECT_TRUE(fired(rules_fired("auto r = Rng(7);\n", "src/core/foo.cpp"),
                    "rng-raw"));
  EXPECT_TRUE(fired(rules_fired("Rng rng(seed);\n", "src/core/foo.cpp"),
                    "rng-raw"));
  EXPECT_TRUE(fired(rules_fired("Rng rng{seed};\n", "src/core/foo.cpp"),
                    "rng-raw"));
  // Signatures returning Rng are not constructions.
  EXPECT_FALSE(fired(
      rules_fired("Rng make_stream(std::uint64_t seed);\n",
                  "src/core/foo.cpp"),
      "rng-raw"));
  EXPECT_FALSE(fired(rules_fired("explicit Rng(std::uint64_t seed);\n",
                                 "src/core/foo.cpp"),
                     "rng-raw"));
  // Tests drive units in isolation; raw Rng is fine there.
  EXPECT_FALSE(fired(rules_fired("Rng rng(42);\n", "tests/foo_test.cpp"),
                     "rng-raw"));
}

TEST(SphinxLint, DuplicateStreamAcrossModulesFires) {
  TempTree tree("dup_streams");
  const std::string user =
      "struct S { int stream(const std::string& l) const; };\n"
      "int f(const S& seeds) { return seeds.stream(\"shared\"); }\n";
  tree.write("src/alpha/one.cpp", "/// \\file one.cpp\n" + user);
  tree.write("src/beta/two.cpp", "/// \\file two.cpp\n" + user);
  const auto report = sphinx::lint::analyze_tree(
      tree.root(), {"src"}, {"rng-stream-duplicate"});
  ASSERT_EQ(report.findings.size(), 2u);  // both declaring sites named
  EXPECT_EQ(report.findings[0].rule, "rng-stream-duplicate");
  // The registry still lists the stream once per declaring file.
  ASSERT_EQ(report.streams.size(), 2u);
  EXPECT_EQ(report.streams[0].name, "shared");
}

TEST(SphinxLint, SameStreamWithinOneModuleIsFine) {
  TempTree tree("same_module_streams");
  const std::string user =
      "struct S { int stream(const std::string& l) const; };\n"
      "int f(const S& seeds) { return seeds.stream(\"shared\"); }\n";
  tree.write("src/alpha/one.cpp", "/// \\file one.cpp\n" + user);
  tree.write("src/alpha/two.cpp", "/// \\file two.cpp\n" + user);
  const auto report = sphinx::lint::analyze_tree(
      tree.root(), {"src"}, {"rng-stream-duplicate"});
  EXPECT_TRUE(report.findings.empty());
}

TEST(SphinxLint, RngRegistryMarkdownListsStreams) {
  TempTree tree("registry");
  tree.write("src/grid/g.cpp",
             "/// \\file g.cpp\n"
             "struct S { int stream(const std::string& l) const; };\n"
             "int f(const S& seeds, const std::string& n) {\n"
             "  return seeds.stream(\"site/\" + n) + seeds.stream(\"bus\");\n"
             "}\n");
  const auto report = sphinx::lint::analyze_tree(tree.root(), {"src"}, {});
  const std::string md = sphinx::lint::rng_registry_markdown(report.streams);
  EXPECT_NE(md.find("| `bus` | literal | src/grid | src/grid/g.cpp |"),
            std::string::npos);
  EXPECT_NE(md.find("| `site/*` | family | src/grid | src/grid/g.cpp |"),
            std::string::npos);
}

// --- derived-state ----------------------------------------------------

TEST(SphinxLint, DerivedStateMutationOutsideAllowedFunctionFires) {
  const auto findings = lint_source(
      "#pragma once\n"
      "/// \\file cache.hpp\n"
      "/// Fixture.\n"
      "class C {\n"
      " public:\n"
      "  void rebuild() { dirty_.clear(); dirty_.insert(1); }\n"
      "  void poke() { dirty_.insert(2); }\n"
      "  std::size_t size() const { return dirty_.size(); }\n"
      " private:\n"
      "  std::set<int> dirty_;  // sphinx-lint: derived(rebuild)\n"
      "};\n",
      "src/core/cache.hpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "derived-state");
  EXPECT_EQ(findings[0].line, 7u);  // the poke() mutation
}

TEST(SphinxLint, DerivedStateFieldAssignmentIsAMutation) {
  // Assigning a field of an annotated member writes the member; reading
  // a field, comparing it or passing its address does not.
  const auto findings = lint_source(
      "#pragma once\n"
      "/// \\file store.hpp\n"
      "/// Fixture.\n"
      "struct State { int seq = 0; int rows = 0; };\n"
      "class S {\n"
      " public:\n"
      "  void publish() { state_.seq = 1; state_.rows += 2; }\n"
      "  void poke() { state_.seq = 3; }\n"
      "  bool first() const { return state_.seq == 1; }\n"
      "  const int* rows() const { return &state_.rows; }\n"
      " private:\n"
      "  State state_;  // sphinx-lint: derived(publish)\n"
      "};\n",
      "src/db/store.hpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "derived-state");
  EXPECT_EQ(findings[0].line, 8u);  // the poke() assignment
}

TEST(SphinxLint, DerivedStateAnnotationCrossesHeaderSourcePairs) {
  TempTree tree("derived_cross");
  tree.write("src/core/cache.hpp",
             "#pragma once\n/// \\file cache.hpp\n/// Fixture.\n"
             "#include <set>\n"
             "class Cache {\n"
             " public:\n"
             "  void rebuild();\n"
             "  void poke();\n"
             " private:\n"
             "  std::set<int> dirty_;  // sphinx-lint: derived(rebuild)\n"
             "};\n");
  tree.write("src/core/cache.cpp",
             "/// \\file cache.cpp\n"
             "#include \"cache.hpp\"\n"
             "void Cache::rebuild() { dirty_.clear(); }\n"
             "void Cache::poke() { dirty_.insert(2); }\n");
  const auto report = sphinx::lint::analyze_tree(tree.root(), {"src"},
                                                 {"derived-state"});
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].path, "src/core/cache.cpp");
  EXPECT_EQ(report.findings[0].line, 4u);
}

// --- observe-only -----------------------------------------------------

TEST(SphinxLint, ObserveOnlyPolicesObsModule) {
  const std::string rng_use = "Rng rng_;\n";
  EXPECT_TRUE(fired(rules_fired(rng_use, "src/obs/spy.cpp"), "observe-only"));
  EXPECT_FALSE(fired(rules_fired(rng_use, "src/grid/site.cpp"),
                     "observe-only"));

  EXPECT_TRUE(fired(
      rules_fired("auto r = seeds.stream(\"obs/x\");\n", "src/obs/spy.cpp"),
      "observe-only"));
  EXPECT_TRUE(fired(
      rules_fired("#include \"core/warehouse.hpp\"\n", "src/obs/spy.cpp"),
      "observe-only"));
  EXPECT_FALSE(fired(
      rules_fired("double mean(double a, double b) { return (a + b) / 2; }\n",
                  "src/obs/export.cpp"),
      "observe-only"));
}

// --- test-only ---------------------------------------------------------

/// A header declaring one public function and one private member, plus
/// its source; `extra` goes inside the public section.
void write_gadget(const TempTree& tree, const std::string& extra = "") {
  tree.write("src/core/gadget.hpp",
             "#pragma once\n/// \\file gadget.hpp\n/// Fixture.\n"
             "namespace fx {\n"
             "class Gadget {\n"
             " public:\n"
             "  int turn() const;\n" +
                 extra +
                 " private:\n"
                 "  int hidden() const;\n"
                 "};\n"
                 "}  // namespace fx\n");
  tree.write("src/core/gadget.cpp",
             "/// \\file gadget.cpp\n#include \"gadget.hpp\"\n"
             "int fx::Gadget::turn() const { return hidden(); }\n"
             "int fx::Gadget::hidden() const { return 1; }\n");
}

/// A file that calls Gadget::turn.
constexpr const char* kTurnUser =
    "int u(const fx::Gadget& g) { return g.turn(); }\n";

std::vector<std::string> test_only_names(const TempTree& tree) {
  std::vector<std::string> out;
  for (const Finding& f :
       sphinx::lint::analyze_tree(tree.root(), {"src"}, {"test-only"})
           .findings) {
    EXPECT_EQ(f.rule, "test-only");
    const std::size_t open = f.message.find('\'');
    out.push_back(f.message.substr(
        open + 1, f.message.find('\'', open + 1) - open - 1));
  }
  return out;
}

TEST(SphinxLint, TestOnlyFiresForANameOnlyTestsUse) {
  TempTree tree("test_only_tests");
  write_gadget(tree);
  tree.write("tests/gadget_test.cpp", kTurnUser);
  EXPECT_EQ(test_only_names(tree), std::vector<std::string>{"Gadget::turn"});
}

TEST(SphinxLint, TestOnlyFiresForANameOnlyItsOwnSourceUses) {
  TempTree tree("test_only_own_source");
  write_gadget(tree);
  EXPECT_EQ(test_only_names(tree), std::vector<std::string>{"Gadget::turn"});
}

TEST(SphinxLint, TestOnlyCountsBenchAndPerfbenchAsUsers) {
  for (const std::string dir :
       {"bench", "perfbench/src", "examples", "tools/x"}) {
    TempTree tree("test_only_users");
    write_gadget(tree);
    tree.write(dir + "/user.cpp", kTurnUser);
    EXPECT_TRUE(test_only_names(tree).empty()) << dir;
  }
}

TEST(SphinxLint, TestOnlyNeverCountsALintFixtureAsAUse) {
  TempTree tree("test_only_fixture");
  write_gadget(tree);
  tree.write("tools/sphinx_lint/fixtures/rules/x/bad/src/user.cpp",
             kTurnUser);
  EXPECT_EQ(test_only_names(tree), std::vector<std::string>{"Gadget::turn"});
}

TEST(SphinxLint, TestOnlyNeverReportsPrivateMembersTypesOrOperators) {
  TempTree tree("test_only_private");
  write_gadget(tree,
               "  enum class Mode { kSlow, fast };\n"
               "  struct Part;\n"
               "  bool operator==(const Gadget&) const = default;\n");
  tree.write("src/core/user.cpp", kTurnUser);
  // hidden() is used only by gadget.cpp, but it is private.
  EXPECT_TRUE(test_only_names(tree).empty());
}

TEST(SphinxLint, TestOnlyWaiverSilencesTheDeclaration) {
  TempTree tree("test_only_waiver");
  write_gadget(tree,
               "  int spare() const;  "
               "// sphinx-lint-allow(test-only): a seam\n");
  tree.write("src/core/user.cpp", kTurnUser);
  EXPECT_TRUE(test_only_names(tree).empty());
}

TEST(SphinxLint, TestOnlyFiresForAConfigFieldOnlyTestsSet) {
  TempTree tree("test_only_config");
  tree.write("src/core/knob.hpp",
             "#pragma once\n/// \\file knob.hpp\n/// Fixture.\n"
             "struct KnobConfig {\n"
             "  double gain = 1.0;\n"
             "  double bias = 0.0;\n"
             "};\n");
  // The program reads both fields and varies only bias; a test varies
  // gain, with a designated initializer and a member assignment.
  tree.write("src/core/amp.cpp",
             "double amp(const KnobConfig& c) { return c.gain + c.bias; }\n"
             "KnobConfig tuned() { KnobConfig c; c.bias = 2.0; return c; }\n");
  tree.write("tests/amp_test.cpp",
             "KnobConfig a{.gain = 3.0};\n"
             "void t(KnobConfig* c) { c->gain = 4.0; c->bias = 1.0; }\n");
  EXPECT_EQ(test_only_names(tree),
            std::vector<std::string>{"KnobConfig::gain"});
}

// --- catalog + JSON output --------------------------------------------

TEST(SphinxLint, CatalogListsEveryRuleWithExplanation) {
  const auto rules = sphinx::lint::rule_list();
  ASSERT_GE(rules.size(), 13u);
  for (const auto& [id, summary] : rules) {
    EXPECT_FALSE(summary.empty()) << id;
    EXPECT_FALSE(sphinx::lint::rule_explain(id).empty()) << id;
  }
  EXPECT_TRUE(sphinx::lint::rule_explain("no-such-rule").empty());
}

TEST(SphinxLint, FindingsJsonRoundTripsThroughRepoParser) {
  const auto findings = lint_source(
      "int a = rand();\n"
      "auto r = Rng(7);\n",
      "src/core/foo.cpp");
  ASSERT_EQ(findings.size(), 2u);

  const std::string json = sphinx::lint::findings_json(findings);
  const auto parsed = sphinx::chaos::parse_json(json);
  ASSERT_TRUE(parsed.has_value()) << json;
  ASSERT_TRUE(parsed.value().is_array());
  ASSERT_EQ(parsed.value().array.size(), findings.size());
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const auto& obj = parsed.value().array[i];
    ASSERT_TRUE(obj.is_object());
    EXPECT_EQ(obj.find("path")->text, findings[i].path);
    EXPECT_EQ(static_cast<std::size_t>(obj.find("line")->number),
              findings[i].line);
    EXPECT_EQ(obj.find("rule")->text, findings[i].rule);
    // Messages contain quotes (code suggestions); escaping must hold.
    EXPECT_EQ(obj.find("message")->text, findings[i].message);
  }
}

TEST(SphinxLint, EmptyFindingsJsonIsAnEmptyArray) {
  const auto parsed = sphinx::chaos::parse_json(sphinx::lint::findings_json({}));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed.value().is_array());
  EXPECT_TRUE(parsed.value().array.empty());
}

}  // namespace
