#pragma once
/// \file wire_reference.hpp
/// The generic XML-RPC tree codec, kept as the tests' reference for the
/// typed wire: an XrValue tree per value, MethodCall and MethodResponse
/// envelopes, and the tree form of every method's params and reply.  The
/// tree is written through rpc::XrWriter and read through rpc::XrReader's
/// public piecewise API, so a typed decoder and its reference fail at the
/// same offset with the same message.  Each method's params are built as
/// a tree and serialized through MethodCall, or parsed into one and then
/// checked, exactly as the service did before the typed decoders; each
/// reply likewise through MethodResponse.  The typed encoders must write
/// the bytes MethodCall{method, params}.serialize() writes, the typed
/// decoders and reply readers must accept what these accept, with the
/// same result, and refuse the rest with the same error.

#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/codec.hpp"
#include "ctrl/renew.hpp"
#include "rpc/xmlrpc.hpp"

namespace sphinx::tree {

// --- the tree ---------------------------------------------------------------

/// Room for a tree-written envelope's bytes.
inline constexpr std::size_t kEnvelopeBytes = 256;

/// An XML-RPC value.  Arrays and structs nest arbitrarily.
class XrValue {
 public:
  using Array = std::vector<XrValue>;
  using Struct = std::map<std::string, XrValue>;

  XrValue() : data_(std::string{}) {}  ///< XML-RPC has no null; default ""
  XrValue(std::int64_t v) : data_(v) {}
  XrValue(int v) : data_(static_cast<std::int64_t>(v)) {}
  XrValue(std::uint64_t v) : data_(static_cast<std::int64_t>(v)) {}
  XrValue(double v) : data_(v) {}
  XrValue(bool v) : data_(v) {}
  XrValue(std::string v) : data_(std::move(v)) {}
  XrValue(const char* v) : data_(std::string(v)) {}
  XrValue(Array v) : data_(std::move(v)) {}
  XrValue(Struct v) : data_(std::move(v)) {}

  [[nodiscard]] bool is_int() const noexcept { return holds<std::int64_t>(); }
  [[nodiscard]] bool is_double() const noexcept { return holds<double>(); }
  [[nodiscard]] bool is_bool() const noexcept { return holds<bool>(); }
  [[nodiscard]] bool is_string() const noexcept { return holds<std::string>(); }
  [[nodiscard]] bool is_array() const noexcept { return holds<Array>(); }
  [[nodiscard]] bool is_struct() const noexcept { return holds<Struct>(); }

  /// Typed accessors; throw AssertionError on type mismatch.  as_double()
  /// accepts an int too.
  [[nodiscard]] std::int64_t as_int() const { return get<std::int64_t>(); }
  [[nodiscard]] double as_double() const {
    if (is_int()) return static_cast<double>(as_int());
    return get<double>();
  }
  [[nodiscard]] bool as_bool() const { return get<bool>(); }
  [[nodiscard]] const std::string& as_string() const {
    return get<std::string>();
  }
  [[nodiscard]] const Array& as_array() const { return get<Array>(); }
  [[nodiscard]] const Struct& as_struct() const { return get<Struct>(); }

  /// Struct member access; throws if not a struct or key missing.
  [[nodiscard]] const XrValue& at(const std::string& key) const {
    const XrValue* member = find(key);
    SPHINX_ASSERT(member != nullptr, "missing struct member: " + key);
    return *member;
  }
  /// The struct member `key`; nullptr if this is not a struct or has no
  /// such member.
  [[nodiscard]] const XrValue* find(const std::string& key) const {
    const auto* s = std::get_if<Struct>(&data_);
    if (s == nullptr) return nullptr;
    const auto it = s->find(key);
    return it == s->end() ? nullptr : &it->second;
  }

  friend bool operator==(const XrValue& a, const XrValue& b) noexcept {
    return a.data_ == b.data_;
  }

 private:
  template <typename T>
  [[nodiscard]] bool holds() const noexcept {
    return std::holds_alternative<T>(data_);
  }
  template <typename T>
  [[nodiscard]] const T& get() const {
    SPHINX_ASSERT(holds<T>(), "XrValue holds another type");
    return std::get<T>(data_);
  }

  std::variant<std::int64_t, double, bool, std::string, Array, Struct> data_;
};

/// `name` with the five predefined entities escaped, as a member name
/// must be before rpc::XrWriter writes it.
inline std::string escaped(const std::string& name) {
  std::string out;
  for (const char c : name) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += c;
    }
  }
  return out;
}

/// Writes any value, as its tree says.
inline void write_value(rpc::XrWriter& out, const XrValue& v) {
  if (v.is_string()) {
    out.string_value(v.as_string());
  } else if (v.is_int()) {
    out.int_value(v.as_int());
  } else if (v.is_double()) {
    out.double_value(v.as_double());
  } else if (v.is_bool()) {
    out.bool_value(v.as_bool());
  } else if (v.is_array()) {
    out.begin_array();
    for (const XrValue& item : v.as_array()) write_value(out, item);
    out.end_array();
  } else {
    out.begin_struct();
    for (const auto& [key, member] : v.as_struct()) {
      out.begin_member(escaped(key));
      write_value(out, member);
      out.end_member();
    }
    out.end_struct();
  }
}

/// Reads one whole value at `depth` as a tree.
inline bool read_value(rpc::XrReader& in, int depth, XrValue& out) {
  rpc::XrType type;
  if (!in.open(depth, type)) return false;
  switch (type) {
    case rpc::XrType::kString: out = XrValue(std::string(in.text())); break;
    case rpc::XrType::kInt: out = XrValue(in.integer()); break;
    case rpc::XrType::kDouble: out = XrValue(in.real()); break;
    case rpc::XrType::kBool: out = XrValue(in.boolean()); break;
    case rpc::XrType::kArray: {
      XrValue::Array items;
      if (!in.items([&] {
            return read_value(in, depth + 1, items.emplace_back());
          })) {
        return false;
      }
      out = XrValue(std::move(items));
      break;
    }
    case rpc::XrType::kStruct: {
      XrValue::Struct members;
      if (!in.each_member([&](std::string_view name) {
            return read_value(in, depth + 1, members[std::string(name)]);
          })) {
        return false;
      }
      out = XrValue(std::move(members));
      break;
    }
  }
  return true;
}

/// A <methodCall>.
struct MethodCall {
  std::string method;
  std::vector<XrValue> params;

  [[nodiscard]] std::string serialize() const {
    rpc::XrWriter out(kEnvelopeBytes);
    out.begin_call(method);
    for (const XrValue& p : params) {
      out.begin_param();
      write_value(out, p);
      out.end_param();
    }
    out.end_call();
    return std::move(out).take();
  }

  [[nodiscard]] static Expected<MethodCall> parse(const std::string& xml) {
    MethodCall call;
    rpc::XrReader in(xml);
    if (!in.begin_call(call.method) ||
        !in.each_param([&](int) {
          return read_value(in, 1, call.params.emplace_back());
        }) ||
        !in.end_call()) {
      return in.error();
    }
    return call;
  }
};

/// XML-RPC fault payload.
struct Fault {
  std::int64_t code = 0;
  std::string message;
};

/// A <methodResponse>: either one return value or a fault.
struct MethodResponse {
  XrValue value;
  bool is_fault = false;
  Fault fault;

  [[nodiscard]] static MethodResponse success(XrValue v) {
    MethodResponse r;
    r.value = std::move(v);
    return r;
  }
  [[nodiscard]] static MethodResponse failure(std::int64_t code,
                                              std::string message) {
    MethodResponse r;
    r.is_fault = true;
    r.fault = Fault{code, std::move(message)};
    return r;
  }

  [[nodiscard]] std::string serialize() const {
    rpc::XrWriter out(kEnvelopeBytes);
    if (is_fault) {
      out.fault(fault.code, fault.message);
    } else {
      out.begin_response();
      write_value(out, value);
      out.end_response();
    }
    return std::move(out).take();
  }

  [[nodiscard]] static Expected<MethodResponse> parse(const std::string& xml) {
    MethodResponse r;
    rpc::XrReader in(xml);
    if (!in.begin_response(r.is_fault, r.fault.code, r.fault.message) ||
        (!r.is_fault && !read_value(in, 1, r.value)) || !in.end_response()) {
      return in.error();
    }
    return r;
  }
};

/// The params decoder the service once gave every untyped method: every
/// param as a tree.  It refuses nothing; its handler checks the params.
inline Expected<std::vector<XrValue>> any_params(rpc::XrReader& in) {
  std::vector<XrValue> params;
  in.each_param([&](int) { return read_value(in, 1, params.emplace_back()); });
  return params;
}

/// A reply as a tree, for a client call whose reply a test inspects.
inline Expected<XrValue> any_reply(rpc::XrReader& in) {
  XrValue value;
  if (!read_value(in, 1, value)) return in.error();
  return value;
}

/// Writes a tree as a reply, for a service wired the tree way.
inline void write_tree(rpc::XrWriter& out, XrValue value) {
  write_value(out, value);
}

// --- message checks ---------------------------------------------------------

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

/// An attempt number off the wire: an int in [1, INT_MAX].  Missing,
/// mistyped, non-positive or wider-than-int values are a `codec` error.
inline Expected<int> decode_attempt(const XrValue* value) {
  if (value == nullptr || !value->is_int()) {
    return make_error("codec", "missing int member: attempt");
  }
  const std::int64_t attempt = value->as_int();
  if (attempt < 1 || attempt > std::numeric_limits<int>::max()) {
    return make_error("codec",
                      "attempt out of range: " + std::to_string(attempt));
  }
  return static_cast<int>(attempt);
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
  auto attempt = decode_attempt(value.find("attempt"));
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
  auto attempt = decode_attempt(value.find("attempt"));
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

// --- dag_done, cancel_attempt, ctrl.renew ----------------------------------

inline std::vector<XrValue> dag_done_params(DagId dag) {
  return {XrValue(dag.value())};
}

inline Expected<DagId> decode_dag_done(const std::vector<XrValue>& params) {
  if (params.size() != 1 || !params[0].is_int()) {
    return make_error("bad_request", "expected [dag_id]");
  }
  return DagId(static_cast<std::uint64_t>(params[0].as_int()));
}

inline std::vector<XrValue> cancel_params(JobId job, int attempt) {
  return {XrValue(job.value()), XrValue(static_cast<std::int64_t>(attempt))};
}

inline Expected<core::AttemptCancel> decode_cancel(
    const std::vector<XrValue>& params) {
  if (params.size() != 2 || !params[0].is_int()) {
    return make_error("bad_request", "expected [job_id, attempt]");
  }
  const auto attempt = decode_attempt(&params[1]);
  if (!attempt) return make_error("bad_request", attempt.error().message);
  return core::AttemptCancel{
      JobId(static_cast<std::uint64_t>(params[0].as_int())), *attempt};
}

inline std::vector<XrValue> renew_params(const std::string& shard,
                                         const std::string& owner,
                                         std::uint64_t epoch) {
  return {XrValue(shard), XrValue(owner),
          XrValue(static_cast<std::int64_t>(epoch))};
}

inline Expected<ctrl::Renewal> decode_renew(
    const std::vector<XrValue>& params) {
  if (params.size() != 3 || !params[0].is_string() || !params[1].is_string() ||
      !params[2].is_int()) {
    return make_error("bad_request", "ctrl.renew(shard, owner, epoch)");
  }
  return ctrl::Renewal{params[0].as_string(), params[1].as_string(),
                       static_cast<std::uint64_t>(params[2].as_int())};
}

// --- replies ----------------------------------------------------------------

inline const char* renew_text(ctrl::RenewOutcome outcome) {
  switch (outcome) {
    case ctrl::RenewOutcome::kRenewed: return "renewed";
    case ctrl::RenewOutcome::kFenced: return "fenced";
    case ctrl::RenewOutcome::kUnknownShard: break;
  }
  return "unknown";
}

/// A reply's value checked as a flag, a DAG id or a renew outcome, as the
/// typed reply readers check it.
inline Expected<bool> flag_reply(const XrValue& v) {
  if (!v.is_bool()) return make_error("codec", "reply is not a boolean");
  return v.as_bool();
}

inline Expected<DagId> dag_id_reply(const XrValue& v) {
  if (!v.is_int()) return make_error("codec", "reply is not an int");
  return DagId(static_cast<std::uint64_t>(v.as_int()));
}

inline Expected<ctrl::RenewOutcome> renew_reply(const XrValue& v) {
  if (!v.is_string()) return make_error("codec", "reply is not a string");
  for (const ctrl::RenewOutcome outcome :
       {ctrl::RenewOutcome::kRenewed, ctrl::RenewOutcome::kFenced,
        ctrl::RenewOutcome::kUnknownShard}) {
    if (v.as_string() == renew_text(outcome)) return outcome;
  }
  return make_error("codec", "unknown renew outcome: " + v.as_string());
}

/// Reads the reply `xml` the tree way, as a client did before the typed
/// readers: MethodResponse::parse, a fault as `fault:<code>`, then `check`
/// on the value.
template <typename R>
Expected<R> tree_reply(const std::string& xml,
                       Expected<R> (*check)(const XrValue&)) {
  const auto response = MethodResponse::parse(xml);
  if (!response) return Unexpected<Error>{response.error()};
  if (response->is_fault) {
    return make_error("fault:" + std::to_string(response->fault.code),
                      response->fault.message);
  }
  return check(response->value);
}

// --- whole calls ------------------------------------------------------------

/// The bytes of `method(params)`, written from the tree.
inline std::string call_bytes(const std::string& method,
                              std::vector<XrValue> params) {
  return MethodCall{method, std::move(params)}.serialize();
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
