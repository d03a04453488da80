#include "core/codec.hpp"

namespace sphinx::core {

using rpc::XrValue;

const char* to_string(ReportKind kind) noexcept {
  switch (kind) {
    case ReportKind::kSubmitted: return "submitted";
    case ReportKind::kRunning: return "running";
    case ReportKind::kCompleted: return "completed";
    case ReportKind::kCancelled: return "cancelled";
    case ReportKind::kHeld: return "held";
  }
  return "?";
}

namespace {

Expected<ReportKind> report_kind_from(const std::string& text) {
  if (text == "submitted") return ReportKind::kSubmitted;
  if (text == "running") return ReportKind::kRunning;
  if (text == "completed") return ReportKind::kCompleted;
  if (text == "cancelled") return ReportKind::kCancelled;
  if (text == "held") return ReportKind::kHeld;
  return make_error("codec", "unknown report kind: " + text);
}

/// Guarded struct-member access helpers; each looks the member up once.
Expected<std::int64_t> need_int(const XrValue& s, const std::string& key) {
  const XrValue* v = s.find(key);
  if (v == nullptr || !v->is_int()) {
    return make_error("codec", "missing int member: " + key);
  }
  return v->as_int();
}

Expected<double> need_double(const XrValue& s, const std::string& key) {
  const XrValue* v = s.find(key);
  if (v == nullptr || (!v->is_double() && !v->is_int())) {
    return make_error("codec", "missing double member: " + key);
  }
  return v->as_double();
}

Expected<std::string> need_string(const XrValue& s, const std::string& key) {
  const XrValue* v = s.find(key);
  if (v == nullptr || !v->is_string()) {
    return make_error("codec", "missing string member: " + key);
  }
  return v->as_string();
}

/// The array member `key`; nullptr if absent or not an array.
const XrValue::Array* find_array(const XrValue& s, const std::string& key) {
  const XrValue* v = s.find(key);
  return v != nullptr && v->is_array() ? &v->as_array() : nullptr;
}

/// Overwrites `out` with the bool member `key` when present and a bool.
void read_bool(const XrValue& s, const std::string& key, bool& out) {
  if (const XrValue* v = s.find(key); v != nullptr && v->is_bool()) {
    out = v->as_bool();
  }
}

}  // namespace

XrValue encode_dag(const workflow::Dag& dag) {
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

Expected<workflow::Dag> decode_dag(const XrValue& value) {
  if (!value.is_struct()) return make_error("codec", "dag is not a struct");
  auto dag_id = need_int(value, "dag_id");
  if (!dag_id) return Unexpected<Error>{dag_id.error()};
  auto name = need_string(value, "name");
  if (!name) return Unexpected<Error>{name.error()};
  const XrValue::Array* jobs = find_array(value, "jobs");
  if (jobs == nullptr) return make_error("codec", "dag without jobs array");

  workflow::Dag dag(DagId(static_cast<std::uint64_t>(*dag_id)), *name);
  // First pass: jobs.  Second pass: edges (parents must exist first).
  std::vector<std::pair<JobId, std::vector<JobId>>> edges;
  for (const XrValue& jv : *jobs) {
    if (!jv.is_struct()) return make_error("codec", "job is not a struct");
    auto job_id = need_int(jv, "job_id");
    if (!job_id) return Unexpected<Error>{job_id.error()};
    auto job_name = need_string(jv, "name");
    if (!job_name) return Unexpected<Error>{job_name.error()};
    auto compute = need_double(jv, "compute_time");
    if (!compute) return Unexpected<Error>{compute.error()};
    auto output = need_string(jv, "output");
    if (!output) return Unexpected<Error>{output.error()};
    auto output_bytes = need_double(jv, "output_bytes");
    if (!output_bytes) return Unexpected<Error>{output_bytes.error()};
    const XrValue::Array* inputs = find_array(jv, "inputs");
    const XrValue::Array* parent_ids = find_array(jv, "parents");
    if (inputs == nullptr || parent_ids == nullptr) {
      return make_error("codec", "job missing inputs/parents");
    }

    workflow::JobSpec spec;
    spec.id = JobId(static_cast<std::uint64_t>(*job_id));
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
    edges.emplace_back(JobId(static_cast<std::uint64_t>(*job_id)),
                       std::move(parents));
  }
  for (const auto& [child, parents] : edges) {
    for (const JobId parent : parents) {
      if (!dag.has_job(parent)) {
        return make_error("codec", "edge references unknown parent");
      }
      dag.add_edge(parent, child);
    }
  }
  if (const auto valid = dag.validate(); !valid.ok()) {
    return Unexpected<Error>{valid.error()};
  }
  return dag;
}

XrValue encode_plan(const ExecutionPlan& plan) {
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
  for (const PlannedInput& input : plan.inputs) {
    XrValue::Struct i;
    i.emplace("lfn", XrValue(input.lfn));
    i.emplace("source", XrValue(input.source.value()));
    i.emplace("bytes", XrValue(input.bytes));
    inputs.emplace_back(std::move(i));
  }
  root.emplace("inputs", XrValue(std::move(inputs)));
  return XrValue(std::move(root));
}

Expected<ExecutionPlan> decode_plan(const XrValue& value) {
  if (!value.is_struct()) return make_error("codec", "plan is not a struct");
  ExecutionPlan plan;
  auto job = need_int(value, "job_id");
  if (!job) return Unexpected<Error>{job.error()};
  auto dag = need_int(value, "dag_id");
  if (!dag) return Unexpected<Error>{dag.error()};
  auto name = need_string(value, "job_name");
  if (!name) return Unexpected<Error>{name.error()};
  auto site = need_int(value, "site");
  if (!site) return Unexpected<Error>{site.error()};
  auto compute = need_double(value, "compute_time");
  if (!compute) return Unexpected<Error>{compute.error()};
  auto output = need_string(value, "output");
  if (!output) return Unexpected<Error>{output.error()};
  auto output_bytes = need_double(value, "output_bytes");
  if (!output_bytes) return Unexpected<Error>{output_bytes.error()};
  auto attempt = need_int(value, "attempt");
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
  plan.attempt = static_cast<int>(*attempt);
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
    auto bytes = need_double(iv, "bytes");
    if (!bytes) return Unexpected<Error>{bytes.error()};
    plan.inputs.push_back(PlannedInput{
        *lfn, SiteId(static_cast<std::uint64_t>(*source)), *bytes});
  }
  return plan;
}

XrValue encode_report(const TrackerReport& report) {
  XrValue::Struct root;
  root.emplace("job_id", XrValue(report.job.value()));
  root.emplace("kind", XrValue(std::string(to_string(report.kind))));
  root.emplace("site", XrValue(report.site.value()));
  root.emplace("at", XrValue(report.at));
  root.emplace("completion_time", XrValue(report.completion_time));
  root.emplace("execution_time", XrValue(report.execution_time));
  root.emplace("idle_time", XrValue(report.idle_time));
  root.emplace("attempt", XrValue(static_cast<std::int64_t>(report.attempt)));
  return XrValue(std::move(root));
}

Expected<TrackerReport> decode_report(const XrValue& value) {
  if (!value.is_struct()) return make_error("codec", "report is not a struct");
  TrackerReport report;
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
  auto completion = need_double(value, "completion_time");
  if (!completion) return Unexpected<Error>{completion.error()};
  auto execution = need_double(value, "execution_time");
  if (!execution) return Unexpected<Error>{execution.error()};
  auto idle = need_double(value, "idle_time");
  if (!idle) return Unexpected<Error>{idle.error()};
  report.job = JobId(static_cast<std::uint64_t>(*job));
  report.kind = *kind;
  report.site = SiteId(static_cast<std::uint64_t>(*site));
  report.at = *at;
  report.completion_time = *completion;
  report.execution_time = *execution;
  report.idle_time = *idle;
  if (const XrValue* v = value.find("attempt"); v != nullptr && v->is_int()) {
    report.attempt = static_cast<int>(v->as_int());
  }
  return report;
}

}  // namespace sphinx::core
