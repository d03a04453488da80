// Tests for the client/server payload codecs: every message type must
// survive encode -> XML wire -> decode.  Malformed payloads are built as
// trees with the reference codecs of wire_reference.hpp, written through
// MethodCall, and read back with the typed decoders.

#include <gtest/gtest.h>

#include <exception>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/codec.hpp"
#include "wire_reference.hpp"
#include "workflow/generator.hpp"

namespace sphinx::core {
namespace {

workflow::Dag sample_dag() {
  workflow::Dag dag(DagId(7), "cms-prod-42");
  workflow::JobSpec a;
  a.id = JobId(100);
  a.name = "reco<stage&1>";  // hostile characters must survive the wire
  a.compute_time = 61.5;
  a.inputs = {"lfn://raw/a", "lfn://raw/b"};
  a.output = "lfn://reco/a";
  a.output_bytes = 42e6;
  workflow::JobSpec b;
  b.id = JobId(101);
  b.name = "analyze";
  b.compute_time = 59.0;
  b.inputs = {"lfn://reco/a", "lfn://calib/x"};
  b.output = "lfn://plots/a";
  b.output_bytes = 1e6;
  dag.add_job(a);
  dag.add_job(b);
  dag.add_edge(JobId(100), JobId(101));
  return dag;
}

/// The typed decoders' view of a tree param: the call is written from
/// the tree and read back the way the service reads it.
Expected<workflow::Dag> dag_from(const tree::XrValue& dag) {
  auto submission = tree::typed_decode(
      tree::call_bytes("sphinx.submit_dag",
                       {tree::XrValue("client"), tree::XrValue(1), dag}),
      &decode_dag);
  if (!submission) return Unexpected<Error>{submission.error()};
  return std::move(submission->dag);
}

Expected<ExecutionPlan> plan_from(const tree::XrValue& plan) {
  return tree::typed_decode(
      tree::call_bytes("sphinx_client.execute_plan", {plan}), &decode_plan);
}

Expected<TrackerReport> report_from(const tree::XrValue& report) {
  return tree::typed_decode(tree::call_bytes("sphinx.report", {report}),
                            &decode_report);
}

/// Typed encode -> bytes -> typed decode of a DAG submission.
Expected<workflow::Dag> round_trip(const workflow::Dag& dag) {
  auto submission = tree::typed_decode(
      encode_dag("client", UserId(1), dag, 0.0, kNever), &decode_dag);
  if (!submission) return Unexpected<Error>{submission.error()};
  return std::move(submission->dag);
}

TEST(DagCodec, RoundTripPreservesEverything) {
  const workflow::Dag original = sample_dag();
  const auto decoded = round_trip(original);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id(), original.id());
  EXPECT_EQ(decoded->name(), original.name());
  ASSERT_EQ(decoded->size(), original.size());
  for (const auto& job : original.jobs()) {
    ASSERT_TRUE(decoded->has_job(job.id));
    const auto& d = decoded->job(job.id);
    EXPECT_EQ(d.name, job.name);
    EXPECT_DOUBLE_EQ(d.compute_time, job.compute_time);
    EXPECT_EQ(d.inputs, job.inputs);
    EXPECT_EQ(d.output, job.output);
    EXPECT_DOUBLE_EQ(d.output_bytes, job.output_bytes);
  }
  EXPECT_EQ(decoded->parents(JobId(101)), std::vector<JobId>{JobId(100)});
}

TEST(DagCodec, GeneratedWorkloadRoundTrips) {
  workflow::IdSpace ids;
  data::ReplicaLocationService rls;
  workflow::WorkloadGenerator generator(workflow::WorkloadConfig{}, Rng(5),
                                        ids, rls, {SiteId(1), SiteId(2)});
  for (int i = 0; i < 5; ++i) {
    const workflow::Dag dag = generator.generate("rt" + std::to_string(i));
    const auto decoded = round_trip(dag);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->size(), dag.size());
    EXPECT_TRUE(decoded->validate().ok());
  }
}

/// Whether `decode` refuses `value` with an error.  A throw is not a
/// refusal: malformed wire input must never reach a precondition.
template <typename Decode>
bool refuses(const Decode& decode, const tree::XrValue& value) {
  try {
    return !decode(value).has_value();
  } catch (const std::exception&) {
    return false;
  }
}

/// `encoded` with job `index`'s member `key` set to `value`.
tree::XrValue with_job_member(const tree::XrValue& encoded, std::size_t index,
                             const std::string& key, tree::XrValue value) {
  auto root = encoded.as_struct();
  auto jobs = root.at("jobs").as_array();
  auto job = jobs.at(index).as_struct();
  job[key] = std::move(value);
  jobs[index] = tree::XrValue(std::move(job));
  root["jobs"] = tree::XrValue(std::move(jobs));
  return tree::XrValue(std::move(root));
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(DagCodec, RejectsMalformedPayloads) {
  EXPECT_FALSE(dag_from(tree::XrValue("not a struct")).has_value());
  tree::XrValue::Struct incomplete;
  incomplete.emplace("dag_id", tree::XrValue(1));
  EXPECT_FALSE(dag_from(tree::XrValue(std::move(incomplete))).has_value());

  const tree::XrValue encoded = tree::encode_dag(sample_dag());
  const auto decode = [](const tree::XrValue& v) { return dag_from(v); };
  // Job 1 (id 101) has no children, so only its own id is at fault.
  for (const std::int64_t bad : {std::int64_t{0}, std::int64_t{-5}}) {
    EXPECT_TRUE(refuses(decode, with_job_member(encoded, 1, "job_id",
                                                tree::XrValue(bad))))
        << "job id " << bad;
  }
  EXPECT_TRUE(refuses(decode, with_job_member(encoded, 1, "job_id",
                                              tree::XrValue(100))))
      << "repeated job id";
  EXPECT_TRUE(refuses(decode,
                      with_job_member(encoded, 1, "parents",
                                      tree::XrValue(tree::XrValue::Array{
                                          tree::XrValue(101)}))))
      << "self edge";
  for (const char* key : {"compute_time", "output_bytes"}) {
    for (const double bad : {-60.0, kNan, kInf}) {
      EXPECT_TRUE(
          refuses(decode, with_job_member(encoded, 0, key, tree::XrValue(bad))))
          << key << " = " << bad;
    }
  }
  // Zero is a legal duration and size.
  EXPECT_TRUE(dag_from(with_job_member(encoded, 0, "compute_time",
                                       tree::XrValue(0.0)))
                  .has_value());
}

TEST(DagCodec, RejectsEdgeToUnknownParent) {
  tree::XrValue encoded = tree::encode_dag(sample_dag());
  // Corrupt: point job 101's parent at a nonexistent id.
  auto root = encoded.as_struct();
  auto jobs = root.at("jobs").as_array();
  auto job1 = jobs.at(1).as_struct();
  job1["parents"] = tree::XrValue(tree::XrValue::Array{tree::XrValue(999)});
  jobs[1] = tree::XrValue(std::move(job1));
  root["jobs"] = tree::XrValue(std::move(jobs));
  EXPECT_FALSE(dag_from(tree::XrValue(std::move(root))).has_value());
}

TEST(PlanCodec, RoundTrip) {
  ExecutionPlan plan;
  plan.job = JobId(55);
  plan.dag = DagId(7);
  plan.job_name = "reco";
  plan.site = SiteId(3);
  plan.compute_time = 60.0;
  plan.inputs = {{"lfn://a", SiteId(1), 12e6}, {"lfn://b", SiteId(9), 7e6}};
  plan.output = "lfn://out";
  plan.output_bytes = 5e6;
  plan.attempt = 2;

  const auto decoded =
      tree::typed_decode(encode_plan(plan), &decode_plan);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->job, plan.job);
  EXPECT_EQ(decoded->dag, plan.dag);
  EXPECT_EQ(decoded->site, plan.site);
  EXPECT_EQ(decoded->attempt, 2);
  ASSERT_EQ(decoded->inputs.size(), 2u);
  EXPECT_EQ(decoded->inputs[1].source, SiteId(9));
  EXPECT_DOUBLE_EQ(decoded->inputs[1].bytes, 7e6);
}

TEST(PlanCodec, EmptyInputsOk) {
  ExecutionPlan plan;
  plan.job = JobId(1);
  plan.dag = DagId(1);
  plan.job_name = "x";
  plan.site = SiteId(1);
  const auto decoded =
      tree::typed_decode(encode_plan(plan), &decode_plan);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->inputs.empty());
}

TEST(PlanCodec, RejectsMissingMembers) {
  EXPECT_FALSE(plan_from(tree::XrValue(5)).has_value());
  tree::XrValue::Struct s;
  s.emplace("job_id", tree::XrValue(1));
  EXPECT_FALSE(plan_from(tree::XrValue(std::move(s))).has_value());
}

TEST(PlanCodec, RejectsNonNumericBatchPriority) {
  ExecutionPlan plan;
  plan.job = JobId(1);
  plan.dag = DagId(1);
  plan.job_name = "x";
  plan.site = SiteId(1);
  auto s = tree::encode_plan(plan).as_struct();
  s["batch_priority"] = tree::XrValue("high");
  Expected<ExecutionPlan> decoded = plan;
  EXPECT_NO_THROW(decoded = plan_from(tree::XrValue(std::move(s))));
  EXPECT_FALSE(decoded.has_value());
}

TEST(PlanCodec, RejectsNegativeOrNonFiniteComputeTime) {
  ExecutionPlan plan;
  plan.job = JobId(1);
  plan.dag = DagId(1);
  plan.job_name = "x";
  plan.site = SiteId(1);
  const auto decode = [](const tree::XrValue& v) { return plan_from(v); };
  for (const double bad : {-60.0, kNan, kInf}) {
    auto s = tree::encode_plan(plan).as_struct();
    s["compute_time"] = tree::XrValue(bad);
    EXPECT_TRUE(refuses(decode, tree::XrValue(std::move(s))))
        << "compute_time = " << bad;
  }
}

TEST(PlanCodec, RejectsNegativeOrNonFiniteOutputOrInputBytes) {
  ExecutionPlan plan;
  plan.job = JobId(1);
  plan.dag = DagId(1);
  plan.job_name = "x";
  plan.site = SiteId(1);
  plan.inputs = {{"lfn://a", SiteId(1), 12e6}, {"lfn://b", SiteId(2), 7e6}};
  const auto decode = [](const tree::XrValue& v) { return plan_from(v); };
  for (const double bad : {-5.0, kNan, kInf}) {
    auto s = tree::encode_plan(plan).as_struct();
    s["output_bytes"] = tree::XrValue(bad);
    EXPECT_TRUE(refuses(decode, tree::XrValue(std::move(s))))
        << "output_bytes = " << bad;
    ExecutionPlan bad_input = plan;
    bad_input.inputs[1].bytes = bad;
    EXPECT_TRUE(refuses(decode, tree::encode_plan(bad_input)))
        << "input bytes = " << bad;
  }
  // Zero is a legal size.
  plan.output_bytes = 0.0;
  plan.inputs[0].bytes = 0.0;
  EXPECT_TRUE(plan_from(tree::encode_plan(plan)).has_value());
}

TEST(ReportCodec, RoundTripEachKind) {
  for (const ReportKind kind :
       {ReportKind::kSubmitted, ReportKind::kRunning, ReportKind::kCompleted,
        ReportKind::kCancelled, ReportKind::kHeld}) {
    TrackerReport report;
    report.job = JobId(9);
    report.kind = kind;
    report.site = SiteId(4);
    report.at = 1234.5;
    report.completion_time = 321.0;
    report.execution_time = 60.5;
    report.idle_time = 260.5;
    report.attempt = 3;
    const auto decoded =
        tree::typed_decode(encode_report(report), &decode_report);
    ASSERT_TRUE(decoded.has_value()) << to_string(kind);
    EXPECT_EQ(decoded->kind, kind);
    EXPECT_EQ(decoded->attempt, 3);
    EXPECT_EQ(decoded->job, report.job);
    EXPECT_EQ(decoded->site, report.site);
    EXPECT_DOUBLE_EQ(decoded->at, report.at);
    EXPECT_DOUBLE_EQ(decoded->completion_time, report.completion_time);
    EXPECT_DOUBLE_EQ(decoded->execution_time, report.execution_time);
    EXPECT_DOUBLE_EQ(decoded->idle_time, report.idle_time);
  }
}

TEST(ReportCodec, RejectsUnknownKind) {
  TrackerReport report;
  report.attempt = 1;
  auto s = tree::encode_report(report).as_struct();
  s["kind"] = tree::XrValue("exploded");
  EXPECT_FALSE(report_from(tree::XrValue(std::move(s))).has_value());
}

TEST(ReportCodec, RejectsNegativeOrNonFiniteCompletionTimeAndNanTime) {
  TrackerReport report;
  report.job = JobId(9);
  report.kind = ReportKind::kCompleted;
  report.site = SiteId(4);
  report.attempt = 1;
  const auto decode = [](const tree::XrValue& v) { return report_from(v); };
  const auto with = [&](const std::string& key, double value) {
    auto s = tree::encode_report(report).as_struct();
    s[key] = tree::XrValue(value);
    return tree::XrValue(std::move(s));
  };
  for (const double bad : {-1.0, kNan, kInf}) {
    EXPECT_TRUE(refuses(decode, with("completion_time", bad)))
        << "completion_time = " << bad;
  }
  EXPECT_TRUE(refuses(decode, with("at", kNan))) << "at = nan";
}

/// Attempt numbers a decoder must refuse: missing, mistyped, zero,
/// negative, or wider than int (4294967297 would truncate to 1).
std::vector<std::optional<tree::XrValue>> bad_attempts() {
  return {std::nullopt,
          tree::XrValue("x"),
          tree::XrValue(1.0),
          tree::XrValue(0),
          tree::XrValue(-3),
          tree::XrValue(std::int64_t{4294967297}),
          tree::XrValue(std::int64_t{std::numeric_limits<int>::max()} + 1)};
}

/// `encoded` with its attempt member replaced (or dropped when empty).
tree::XrValue with_attempt(const tree::XrValue& encoded,
                          const std::optional<tree::XrValue>& attempt) {
  auto s = encoded.as_struct();
  s.erase("attempt");
  if (attempt.has_value()) s.emplace("attempt", *attempt);
  return tree::XrValue(std::move(s));
}

TEST(ReportCodec, AttemptIsRequiredAndInRange) {
  TrackerReport report;
  report.job = JobId(9);
  report.site = SiteId(4);
  const tree::XrValue encoded = tree::encode_report(report);
  for (const auto& attempt : bad_attempts()) {
    EXPECT_FALSE(report_from(with_attempt(encoded, attempt)).has_value());
  }
  for (const int attempt : {1, std::numeric_limits<int>::max()}) {
    const auto decoded =
        report_from(with_attempt(encoded, tree::XrValue(attempt)));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->attempt, attempt);
  }
}

TEST(PlanCodec, AttemptIsRequiredAndInRange) {
  ExecutionPlan plan;
  plan.job = JobId(1);
  plan.dag = DagId(1);
  plan.job_name = "x";
  plan.site = SiteId(1);
  const tree::XrValue encoded = tree::encode_plan(plan);
  for (const auto& attempt : bad_attempts()) {
    EXPECT_FALSE(plan_from(with_attempt(encoded, attempt)).has_value());
  }
  for (const int attempt : {1, std::numeric_limits<int>::max()}) {
    const auto decoded =
        plan_from(with_attempt(encoded, tree::XrValue(attempt)));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->attempt, attempt);
  }
}

}  // namespace
}  // namespace sphinx::core
