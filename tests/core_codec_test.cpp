// Tests for the client/server payload codecs: every message type must
// survive encode -> XML wire -> decode.

#include <gtest/gtest.h>

#include "core/codec.hpp"
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

/// Full wire round trip: value -> XML text -> value.
rpc::XrValue through_wire(const rpc::XrValue& value) {
  rpc::MethodCall call;
  call.method = "test";
  call.params = {value};
  const auto parsed = rpc::MethodCall::parse(call.serialize());
  EXPECT_TRUE(parsed.has_value());
  return parsed->params.at(0);
}

TEST(DagCodec, RoundTripPreservesEverything) {
  const workflow::Dag original = sample_dag();
  const auto decoded = decode_dag(through_wire(encode_dag(original)));
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
    const auto decoded = decode_dag(through_wire(encode_dag(dag)));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->size(), dag.size());
    EXPECT_TRUE(decoded->validate().ok());
  }
}

TEST(DagCodec, RejectsMalformedPayloads) {
  EXPECT_FALSE(decode_dag(rpc::XrValue("not a struct")).has_value());
  rpc::XrValue::Struct incomplete;
  incomplete.emplace("dag_id", rpc::XrValue(1));
  EXPECT_FALSE(decode_dag(rpc::XrValue(std::move(incomplete))).has_value());
}

TEST(DagCodec, RejectsEdgeToUnknownParent) {
  rpc::XrValue encoded = encode_dag(sample_dag());
  // Corrupt: point job 101's parent at a nonexistent id.
  auto root = encoded.as_struct();
  auto jobs = root.at("jobs").as_array();
  auto job1 = jobs.at(1).as_struct();
  job1["parents"] = rpc::XrValue(rpc::XrValue::Array{rpc::XrValue(999)});
  jobs[1] = rpc::XrValue(std::move(job1));
  root["jobs"] = rpc::XrValue(std::move(jobs));
  EXPECT_FALSE(decode_dag(rpc::XrValue(std::move(root))).has_value());
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

  const auto decoded = decode_plan(through_wire(encode_plan(plan)));
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
  const auto decoded = decode_plan(through_wire(encode_plan(plan)));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->inputs.empty());
}

TEST(PlanCodec, RejectsMissingMembers) {
  EXPECT_FALSE(decode_plan(rpc::XrValue(5)).has_value());
  rpc::XrValue::Struct s;
  s.emplace("job_id", rpc::XrValue(1));
  EXPECT_FALSE(decode_plan(rpc::XrValue(std::move(s))).has_value());
}

TEST(PlanCodec, RejectsNonNumericBatchPriority) {
  ExecutionPlan plan;
  plan.job = JobId(1);
  plan.dag = DagId(1);
  plan.job_name = "x";
  plan.site = SiteId(1);
  auto s = encode_plan(plan).as_struct();
  s["batch_priority"] = rpc::XrValue("high");
  Expected<ExecutionPlan> decoded = plan;
  EXPECT_NO_THROW(decoded = decode_plan(rpc::XrValue(std::move(s))));
  EXPECT_FALSE(decoded.has_value());
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
    const auto decoded = decode_report(through_wire(encode_report(report)));
    ASSERT_TRUE(decoded.has_value()) << to_string(kind);
    EXPECT_EQ(decoded->kind, kind);
    EXPECT_EQ(decoded->job, report.job);
    EXPECT_EQ(decoded->site, report.site);
    EXPECT_DOUBLE_EQ(decoded->at, report.at);
    EXPECT_DOUBLE_EQ(decoded->completion_time, report.completion_time);
    EXPECT_DOUBLE_EQ(decoded->execution_time, report.execution_time);
    EXPECT_DOUBLE_EQ(decoded->idle_time, report.idle_time);
  }
}

TEST(ReportCodec, RejectsUnknownKind) {
  rpc::XrValue encoded = encode_report(TrackerReport{});
  auto s = encoded.as_struct();
  s["kind"] = rpc::XrValue("exploded");
  EXPECT_FALSE(decode_report(rpc::XrValue(std::move(s))).has_value());
}

}  // namespace
}  // namespace sphinx::core
