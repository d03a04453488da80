#pragma once
/// \file wire_reference.hpp
/// The XrValue-tree codecs of the three scheduling messages, kept as the
/// tests' reference for the typed wire in core/codec.hpp: each message is
/// built as an XrValue tree and serialized through rpc::MethodCall, or
/// parsed into one and then decoded, exactly as the service did before
/// the typed decoders.  The typed encoders must write the bytes
/// MethodCall{method, params}.serialize() writes, and the typed decoders
/// must accept what these accept, with the same result, and refuse the
/// rest with the same error.

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/codec.hpp"
#include "rpc/xmlrpc.hpp"

namespace sphinx::tree {

using rpc::XrValue;

inline Expected<std::int64_t> need_int(const XrValue& s,
                                       const std::string& key) {
  const XrValue* v = s.find(key);
  if (v == nullptr || !v->is_int()) {
    return make_error("codec", "missing int member: " + key);
  }
  return v->as_int();
}

inline Expected<double> need_double(const XrValue& s, const std::string& key) {
  const XrValue* v = s.find(key);
  if (v == nullptr || (!v->is_double() && !v->is_int())) {
    return make_error("codec", "missing double member: " + key);
  }
  return v->as_double();
}

/// A duration or size member: finite and >= 0, or a `codec` error.
inline Expected<double> need_non_negative(const XrValue& s,
                                          const std::string& key) {
  auto v = need_double(s, key);
  if (v && !(std::isfinite(*v) && *v >= 0)) {
    return make_error("codec", key + " must be finite and >= 0");
  }
  return v;
}

inline Expected<std::string> need_string(const XrValue& s,
                                         const std::string& key) {
  const XrValue* v = s.find(key);
  if (v == nullptr || !v->is_string()) {
    return make_error("codec", "missing string member: " + key);
  }
  return v->as_string();
}

inline const XrValue::Array* find_array(const XrValue& s,
                                        const std::string& key) {
  const XrValue* v = s.find(key);
  return v != nullptr && v->is_array() ? &v->as_array() : nullptr;
}

inline void read_bool(const XrValue& s, const std::string& key, bool& out) {
  if (const XrValue* v = s.find(key); v != nullptr && v->is_bool()) {
    out = v->as_bool();
  }
}

inline Expected<core::ReportKind> report_kind_from(const std::string& text) {
  using core::ReportKind;
  if (text == "submitted") return ReportKind::kSubmitted;
  if (text == "running") return ReportKind::kRunning;
  if (text == "completed") return ReportKind::kCompleted;
  if (text == "cancelled") return ReportKind::kCancelled;
  if (text == "held") return ReportKind::kHeld;
  return make_error("codec", "unknown report kind: " + text);
}

// --- DAG --------------------------------------------------------------------

inline XrValue encode_dag(const workflow::Dag& dag) {
  XrValue::Struct root;
  root.emplace("dag_id", XrValue(dag.id().value()));
  root.emplace("name", XrValue(dag.name()));
  XrValue::Array jobs;
  for (const workflow::JobSpec& job : dag.jobs()) {
    XrValue::Struct j;
    j.emplace("job_id", XrValue(job.id.value()));
    j.emplace("name", XrValue(job.name));
    j.emplace("compute_time", XrValue(job.compute_time));
    j.emplace("output", XrValue(job.output));
    j.emplace("output_bytes", XrValue(job.output_bytes));
    XrValue::Array inputs;
    for (const data::Lfn& lfn : job.inputs) inputs.emplace_back(lfn);
    j.emplace("inputs", XrValue(std::move(inputs)));
    XrValue::Array parents;
    for (const JobId parent : dag.parents(job.id)) {
      parents.emplace_back(parent.value());
    }
    j.emplace("parents", XrValue(std::move(parents)));
    jobs.emplace_back(std::move(j));
  }
  root.emplace("jobs", XrValue(std::move(jobs)));
  return XrValue(std::move(root));
}

inline Expected<workflow::Dag> decode_dag(const XrValue& value) {
  if (!value.is_struct()) return make_error("codec", "dag is not a struct");
  auto dag_id = need_int(value, "dag_id");
  if (!dag_id) return Unexpected<Error>{dag_id.error()};
  auto name = need_string(value, "name");
  if (!name) return Unexpected<Error>{name.error()};
  const XrValue::Array* jobs = find_array(value, "jobs");
  if (jobs == nullptr) return make_error("codec", "dag without jobs array");

  workflow::Dag dag(DagId(static_cast<std::uint64_t>(*dag_id)), *name);
  std::vector<std::pair<JobId, std::vector<JobId>>> edges;
  for (const XrValue& jv : *jobs) {
    if (!jv.is_struct()) return make_error("codec", "job is not a struct");
    auto job_id = need_int(jv, "job_id");
    if (!job_id) return Unexpected<Error>{job_id.error()};
    if (*job_id < 1) {
      return make_error("codec",
                        "job id out of range: " + std::to_string(*job_id));
    }
    const JobId id(static_cast<std::uint64_t>(*job_id));
    if (dag.has_job(id)) {
      return make_error("codec",
                        "duplicate job id: " + std::to_string(*job_id));
    }
    auto job_name = need_string(jv, "name");
    if (!job_name) return Unexpected<Error>{job_name.error()};
    auto compute = need_non_negative(jv, "compute_time");
    if (!compute) return Unexpected<Error>{compute.error()};
    auto output = need_string(jv, "output");
    if (!output) return Unexpected<Error>{output.error()};
    auto output_bytes = need_non_negative(jv, "output_bytes");
    if (!output_bytes) return Unexpected<Error>{output_bytes.error()};
    const XrValue::Array* inputs = find_array(jv, "inputs");
    const XrValue::Array* parent_ids = find_array(jv, "parents");
    if (inputs == nullptr || parent_ids == nullptr) {
      return make_error("codec", "job missing inputs/parents");
    }
    workflow::JobSpec spec;
    spec.id = id;
    spec.name = *job_name;
    spec.compute_time = *compute;
    spec.output = *output;
    spec.output_bytes = *output_bytes;
    for (const XrValue& in : *inputs) {
      if (!in.is_string()) return make_error("codec", "input is not a string");
      spec.inputs.push_back(in.as_string());
    }
    std::vector<JobId> parents;
    for (const XrValue& p : *parent_ids) {
      if (!p.is_int()) return make_error("codec", "parent is not an int");
      parents.emplace_back(static_cast<std::uint64_t>(p.as_int()));
    }
    dag.add_job(std::move(spec));
    edges.emplace_back(id, std::move(parents));
  }
  for (const auto& [child, parents] : edges) {
    for (const JobId parent : parents) {
      if (!dag.has_job(parent)) {
        return make_error("codec", "edge references unknown parent");
      }
      if (parent == child) return make_error("codec", "self edge");
      dag.add_edge(parent, child);
    }
  }
  if (const auto valid = dag.validate(); !valid.ok()) {
    return Unexpected<Error>{valid.error()};
  }
  return dag;
}

/// `sphinx.submit_dag`'s params, as its handler checked them.
inline std::vector<XrValue> submit_params(const std::string& client,
                                          UserId user,
                                          const workflow::Dag& dag,
                                          double priority, SimTime deadline) {
  return {XrValue(client), XrValue(user.value()), encode_dag(dag),
          XrValue(priority), XrValue(deadline)};
}

inline Expected<core::DagSubmission> decode_submission(
    const std::vector<XrValue>& params) {
  if (params.size() < 3 || params.size() > 5 || !params[0].is_string() ||
      !params[1].is_int()) {
    return make_error(
        "bad_request",
        "expected [client_endpoint, user_id, dag, priority?, deadline?]");
  }
  auto dag = decode_dag(params[2]);
  if (!dag) return Unexpected<Error>{dag.error()};
  core::DagSubmission submission;
  submission.client = params[0].as_string();
  submission.user = UserId(static_cast<std::uint64_t>(params[1].as_int()));
  submission.dag = std::move(*dag);
  if (params.size() >= 4) {
    if (!params[3].is_double() && !params[3].is_int()) {
      return make_error("bad_request", "priority must be numeric");
    }
    submission.priority = params[3].as_double();
    if (std::isnan(submission.priority)) {
      return make_error("bad_request", "priority must not be NaN");
    }
  }
  if (params.size() == 5) {
    if (!params[4].is_double() && !params[4].is_int()) {
      return make_error("bad_request", "deadline must be numeric");
    }
    submission.deadline = params[4].as_double();
    if (std::isnan(submission.deadline)) {
      return make_error("bad_request", "deadline must not be NaN");
    }
  }
  return submission;
}

// --- plan -------------------------------------------------------------------

inline XrValue encode_plan(const core::ExecutionPlan& plan) {
  XrValue::Struct root;
  root.emplace("job_id", XrValue(plan.job.value()));
  root.emplace("dag_id", XrValue(plan.dag.value()));
  root.emplace("job_name", XrValue(plan.job_name));
  root.emplace("site", XrValue(plan.site.value()));
  root.emplace("compute_time", XrValue(plan.compute_time));
  root.emplace("output", XrValue(plan.output));
  root.emplace("output_bytes", XrValue(plan.output_bytes));
  root.emplace("attempt", XrValue(static_cast<std::int64_t>(plan.attempt)));
  root.emplace("persist_output", XrValue(plan.persist_output));
  root.emplace("persistent_site", XrValue(plan.persistent_site.value()));
  root.emplace("batch_priority", XrValue(plan.batch_priority));
  root.emplace("speculative", XrValue(plan.speculative));
  XrValue::Array inputs;
  for (const core::PlannedInput& input : plan.inputs) {
    XrValue::Struct i;
    i.emplace("lfn", XrValue(input.lfn));
    i.emplace("source", XrValue(input.source.value()));
    i.emplace("bytes", XrValue(input.bytes));
    inputs.emplace_back(std::move(i));
  }
  root.emplace("inputs", XrValue(std::move(inputs)));
  return XrValue(std::move(root));
}

inline Expected<core::ExecutionPlan> decode_plan(const XrValue& value) {
  if (!value.is_struct()) return make_error("codec", "plan is not a struct");
  core::ExecutionPlan plan;
  auto job = need_int(value, "job_id");
  if (!job) return Unexpected<Error>{job.error()};
  auto dag = need_int(value, "dag_id");
  if (!dag) return Unexpected<Error>{dag.error()};
  auto name = need_string(value, "job_name");
  if (!name) return Unexpected<Error>{name.error()};
  auto site = need_int(value, "site");
  if (!site) return Unexpected<Error>{site.error()};
  auto compute = need_non_negative(value, "compute_time");
  if (!compute) return Unexpected<Error>{compute.error()};
  auto output = need_string(value, "output");
  if (!output) return Unexpected<Error>{output.error()};
  auto output_bytes = need_non_negative(value, "output_bytes");
  if (!output_bytes) return Unexpected<Error>{output_bytes.error()};
  auto attempt = core::decode_attempt(value.find("attempt"));
  if (!attempt) return Unexpected<Error>{attempt.error()};
  const XrValue::Array* inputs = find_array(value, "inputs");
  if (inputs == nullptr) return make_error("codec", "plan without inputs");
  plan.job = JobId(static_cast<std::uint64_t>(*job));
  plan.dag = DagId(static_cast<std::uint64_t>(*dag));
  plan.job_name = *name;
  plan.site = SiteId(static_cast<std::uint64_t>(*site));
  plan.compute_time = *compute;
  plan.output = *output;
  plan.output_bytes = *output_bytes;
  plan.attempt = *attempt;
  read_bool(value, "persist_output", plan.persist_output);
  if (const XrValue* v = value.find("persistent_site");
      v != nullptr && v->is_int()) {
    plan.persistent_site = SiteId(static_cast<std::uint64_t>(v->as_int()));
  }
  if (const XrValue* v = value.find("batch_priority"); v != nullptr) {
    if (!v->is_double() && !v->is_int()) {
      return make_error("codec", "batch_priority is not a number");
    }
    plan.batch_priority = v->as_double();
  }
  read_bool(value, "speculative", plan.speculative);
  for (const XrValue& iv : *inputs) {
    auto lfn = need_string(iv, "lfn");
    if (!lfn) return Unexpected<Error>{lfn.error()};
    auto source = need_int(iv, "source");
    if (!source) return Unexpected<Error>{source.error()};
    auto bytes = need_non_negative(iv, "bytes");
    if (!bytes) return Unexpected<Error>{bytes.error()};
    plan.inputs.push_back(core::PlannedInput{
        *lfn, SiteId(static_cast<std::uint64_t>(*source)), *bytes});
  }
  return plan;
}

inline Expected<core::ExecutionPlan> decode_plan_params(
    const std::vector<XrValue>& params) {
  if (params.size() != 1) return make_error("bad_request", "expected [plan]");
  return decode_plan(params[0]);
}

// --- report -----------------------------------------------------------------

inline XrValue encode_report(const core::TrackerReport& report) {
  XrValue::Struct root;
  root.emplace("job_id", XrValue(report.job.value()));
  root.emplace("kind", XrValue(std::string(core::to_string(report.kind))));
  root.emplace("site", XrValue(report.site.value()));
  root.emplace("at", XrValue(report.at));
  root.emplace("completion_time", XrValue(report.completion_time));
  root.emplace("execution_time", XrValue(report.execution_time));
  root.emplace("idle_time", XrValue(report.idle_time));
  root.emplace("attempt", XrValue(static_cast<std::int64_t>(report.attempt)));
  return XrValue(std::move(root));
}

inline Expected<core::TrackerReport> decode_report(const XrValue& value) {
  if (!value.is_struct()) return make_error("codec", "report is not a struct");
  core::TrackerReport report;
  auto job = need_int(value, "job_id");
  if (!job) return Unexpected<Error>{job.error()};
  auto kind_text = need_string(value, "kind");
  if (!kind_text) return Unexpected<Error>{kind_text.error()};
  auto kind = report_kind_from(*kind_text);
  if (!kind) return Unexpected<Error>{kind.error()};
  auto site = need_int(value, "site");
  if (!site) return Unexpected<Error>{site.error()};
  auto at = need_double(value, "at");
  if (!at) return Unexpected<Error>{at.error()};
  if (std::isnan(*at)) return make_error("codec", "at is NaN");
  auto completion = need_non_negative(value, "completion_time");
  if (!completion) return Unexpected<Error>{completion.error()};
  auto execution = need_double(value, "execution_time");
  if (!execution) return Unexpected<Error>{execution.error()};
  auto idle = need_double(value, "idle_time");
  if (!idle) return Unexpected<Error>{idle.error()};
  auto attempt = core::decode_attempt(value.find("attempt"));
  if (!attempt) return Unexpected<Error>{attempt.error()};
  report.job = JobId(static_cast<std::uint64_t>(*job));
  report.kind = *kind;
  report.site = SiteId(static_cast<std::uint64_t>(*site));
  report.at = *at;
  report.completion_time = *completion;
  report.execution_time = *execution;
  report.idle_time = *idle;
  report.attempt = *attempt;
  return report;
}

inline Expected<core::TrackerReport> decode_report_params(
    const std::vector<XrValue>& params) {
  if (params.size() != 1) return make_error("bad_request", "expected [report]");
  return decode_report(params[0]);
}

// --- whole calls ------------------------------------------------------------

/// The bytes of `method(params)`, written from the tree.
inline std::string call_bytes(const std::string& method,
                              std::vector<XrValue> params) {
  return rpc::MethodCall{method, std::move(params)}.serialize();
}

/// Reads the whole call `xml` with typed params decoder `decode`, as the
/// service does: the params, or the parse error or refusal.
template <typename P>
Expected<P> typed_decode(const std::string& xml,
                         Expected<P> (*decode)(rpc::XrReader&)) {
  rpc::XrReader in(xml);
  std::string method;
  if (!in.begin_call(method)) return in.error();
  Expected<P> params = decode(in);
  if (!in.ok() || !in.end_call()) return in.error();
  return params;
}

}  // namespace sphinx::tree
