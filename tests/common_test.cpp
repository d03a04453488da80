// Tests for src/common: strong ids, rng determinism, Expected, stats,
// string helpers and table rendering.

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "common/error.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/time.hpp"

namespace sphinx {
namespace {

TEST(StrongId, DefaultIsInvalid) {
  JobId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id.value(), 0u);
}

TEST(StrongId, GeneratorNeverReturnsInvalid) {
  IdGenerator<JobId> gen;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(gen.next().valid());
  }
  EXPECT_EQ(gen.next(), JobId(101));
}

TEST(StrongId, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<JobId, SiteId>);
  static_assert(!std::is_convertible_v<JobId, SiteId>);
}

TEST(StrongId, OrderingAndEquality) {
  EXPECT_EQ(JobId(5), JobId(5));
  EXPECT_NE(JobId(5), JobId(6));
  EXPECT_LT(JobId(5), JobId(6));
}

TEST(StrongId, Hashable) {
  std::unordered_set<JobId> set;
  set.insert(JobId(1));
  set.insert(JobId(2));
  set.insert(JobId(1));
  EXPECT_EQ(set.size(), 2u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(10.0, 20.0);
    EXPECT_GE(v, 10.0);
    EXPECT_LT(v, 20.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(1, 3);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // all values hit
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(SeedTree, SameLabelSameSeed) {
  SeedTree tree(99);
  EXPECT_EQ(tree.seed_for("monitor"), tree.seed_for("monitor"));
}

TEST(SeedTree, DifferentLabelsDecorrelated) {
  SeedTree tree(99);
  EXPECT_NE(tree.seed_for("monitor"), tree.seed_for("failure"));
  EXPECT_NE(tree.seed_for("site/1"), tree.seed_for("site/2"));
}

TEST(SeedTree, DifferentMastersDiffer) {
  EXPECT_NE(SeedTree(1).seed_for("x"), SeedTree(2).seed_for("x"));
}

TEST(SeedTree, DuplicateStreamLabelThrows) {
  SeedTree tree(99);
  (void)tree.stream("bus");
#if SPHINX_CONTRACTS_ENABLED
  EXPECT_THROW((void)tree.stream("bus"), sphinx::ContractViolation);
#endif
  // Distinct labels keep working after the violation.
  (void)tree.stream("monitoring");
}

TEST(SeedTree, SeedForDoesNotCountAsIssuing) {
  SeedTree tree(99);
  (void)tree.seed_for("bus");
  (void)tree.seed_for("bus");  // probing child seeds is free
  (void)tree.stream("bus");    // first actual issue is fine
  EXPECT_EQ(tree.issued().size(), 1u);
}

TEST(SeedTree, StreamReplicaIsExemptAndIdentical) {
  SeedTree tree(99);
  Rng a = tree.stream_replica("workload/shared");
  Rng b = tree.stream_replica("workload/shared");
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1 << 30), b.uniform_int(0, 1 << 30));
  }
  EXPECT_TRUE(tree.issued().empty());
}

TEST(SeedTree, CopiesInheritTheIssuedSet) {
  SeedTree parent(99);
  (void)parent.stream("bus");
  const SeedTree child = parent;
  EXPECT_EQ(child.issued().size(), 1u);
#if SPHINX_CONTRACTS_ENABLED
  // A tree forwarded by value still rejects labels the parent used...
  EXPECT_THROW((void)child.stream("bus"), sphinx::ContractViolation);
#endif
  // ...while fresh labels on the child do not affect the parent.
  (void)child.stream("site/1");
  EXPECT_EQ(parent.issued().size(), 1u);
}

TEST(Expected, HoldsValue) {
  Expected<int> e(42);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*e, 42);
  EXPECT_EQ(e.value_or(0), 42);
}

TEST(Expected, HoldsError) {
  Expected<int> e = make_error("nope", "broken");
  ASSERT_FALSE(e.has_value());
  EXPECT_EQ(e.error().code, "nope");
  EXPECT_EQ(e.value_or(7), 7);
  EXPECT_THROW((void)e.value(), AssertionError);
}

TEST(Expected, WrongAlternativeAccessThrows) {
  Expected<int> ok(1);
  EXPECT_THROW((void)ok.error(), AssertionError);
  const Expected<int> err = make_error("gone", "no value here");
  EXPECT_THROW((void)err.value(), AssertionError);
  EXPECT_THROW((void)*err, AssertionError);
}

TEST(Expected, UnexpectedDeductionGuide) {
  // CTAD: Unexpected{Error{...}} deduces Unexpected<Error> without the
  // template argument being spelled out.
  Expected<int> e = Unexpected{Error{"deduced", "via CTAD"}};
  ASSERT_FALSE(e.has_value());
  EXPECT_EQ(e.error().code, "deduced");
  EXPECT_EQ(e.error().to_string(), "deduced: via CTAD");
}

TEST(Expected, ValueOrCoversBothAlternatives) {
  Expected<std::string> ok(std::string("present"));
  EXPECT_EQ(ok.value_or("fallback"), "present");
  Expected<std::string> err = make_error("e", "m");
  EXPECT_EQ(err.value_or("fallback"), "fallback");
}

TEST(Status, DefaultIsOk) {
  StatusOrError s;
  EXPECT_TRUE(s.ok());
  EXPECT_THROW((void)s.error(), AssertionError);
}

TEST(Status, CarriesError) {
  StatusOrError s = make_error("quota_exceeded", "cpu quota used up");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "quota_exceeded");
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Percentile, BasicQuantiles) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
}

TEST(Percentile, EmptyReturnsZero) {
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitSingleField) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi \n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
}

TEST(Strings, FormatHelpers) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_duration(3723), "1h 02m 03s");
  EXPECT_EQ(format_duration(42), "42s");
  EXPECT_EQ(format_duration(125), "2m 05s");
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t;
  t.set_header({"algorithm", "time"});
  t.add_row({"round-robin", "120.0"});
  t.add_row({"completion-time", "80.5"});
  const std::string out = t.render();
  EXPECT_NE(out.find("algorithm"), std::string::npos);
  EXPECT_NE(out.find("completion-time"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_NE(out.find("round-robin"), std::string::npos);
}

TEST(TextTable, ShortRowsPadded) {
  TextTable t;
  t.set_header({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_NO_THROW((void)t.render());
}

TEST(BarLine, ProportionalFill) {
  const std::string full = bar_line("x", 10.0, 10.0, 10);
  const std::string half = bar_line("x", 5.0, 10.0, 10);
  EXPECT_GT(std::count(full.begin(), full.end(), '#'),
            std::count(half.begin(), half.end(), '#'));
}

TEST(Time, LiteralHelpers) {
  EXPECT_DOUBLE_EQ(minutes(2), 120.0);
  EXPECT_DOUBLE_EQ(hours(1), 3600.0);
  EXPECT_DOUBLE_EQ(seconds(5), 5.0);
  EXPECT_GT(kNever, hours(1e9));
}

}  // namespace
}  // namespace sphinx
