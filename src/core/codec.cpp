#include "core/codec.hpp"

#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_set>

namespace sphinx::core {

using rpc::XrReader;
using rpc::XrType;
using rpc::XrWriter;

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

/// Room for each message's bytes, so its writer never grows: a report is
/// about 740 bytes, a plan about 1.2 KB plus 240 per input, a DAG
/// submission about 400 bytes plus 840 per job, a dag_done or a
/// cancel_attempt about 200 bytes.
constexpr std::size_t kReportBytes = 832;
constexpr std::size_t kPlanBytes = 1280;
constexpr std::size_t kPlanInputBytes = 256;
constexpr std::size_t kDagBytes = 512;
constexpr std::size_t kDagJobBytes = 896;
constexpr std::size_t kNoticeBytes = 256;

Expected<ReportKind> report_kind_from(std::string_view text) {
  if (text == "submitted") return ReportKind::kSubmitted;
  if (text == "running") return ReportKind::kRunning;
  if (text == "completed") return ReportKind::kCompleted;
  if (text == "cancelled") return ReportKind::kCancelled;
  if (text == "held") return ReportKind::kHeld;
  return make_error("codec", "unknown report kind: " + std::string(text));
}

// --- reading ----------------------------------------------------------------
//
// A decoder first reads its message's members off the wire, each into an
// optional that stays empty when the member is absent or of another type,
// then checks them in its documented order.

Unexpected<Error> missing(const char* type, const char* key) {
  return make_error("codec", std::string("missing ") + type +
                                 " member: " + key);
}

/// Reads one value at `depth`; keeps it in `out` when it is an int.
bool read_int(XrReader& in, int depth, std::optional<std::int64_t>& out) {
  XrType type;
  if (!in.open(depth, type)) return false;
  if (type == XrType::kInt) out = in.integer();
  return in.skip_open(type, depth);
}

/// Keeps an int or a double, as a double.
bool read_number(XrReader& in, int depth, std::optional<double>& out) {
  XrType type;
  if (!in.open(depth, type)) return false;
  if (type == XrType::kDouble) out = in.real();
  if (type == XrType::kInt) out = static_cast<double>(in.integer());
  return in.skip_open(type, depth);
}

bool read_string(XrReader& in, int depth, std::optional<std::string>& out) {
  XrType type;
  if (!in.open(depth, type)) return false;
  if (type == XrType::kString) out.emplace(in.text());
  return in.skip_open(type, depth);
}

/// Overwrites `out` when the value is a bool.
bool read_bool(XrReader& in, int depth, bool& out) {
  XrType type;
  if (!in.open(depth, type)) return false;
  if (type == XrType::kBool) out = in.boolean();
  return in.skip_open(type, depth);
}

/// Opens the value at `depth` and, when it has type `want`, calls
/// `read()` to read the rest; any other value is validated and skipped.
/// `is_want` says which it was.
template <typename F>
bool read_if(XrReader& in, int depth, XrType want, bool& is_want, F&& read) {
  XrType type;
  if (!in.open(depth, type)) return false;
  is_want = type == want;
  return is_want ? read() : in.skip_open(type, depth);
}

/// A duration or size: finite and >= 0.
Expected<double> non_negative(const std::optional<double>& v, const char* key) {
  if (!v) return missing("double", key);
  if (!(std::isfinite(*v) && *v >= 0)) {
    return make_error("codec", std::string(key) + " must be finite and >= 0");
  }
  return *v;
}

/// An attempt number: an int in [1, INT_MAX].
Expected<int> attempt_of(const std::optional<std::int64_t>& v) {
  if (!v) return missing("int", "attempt");
  if (*v < 1 || *v > std::numeric_limits<int>::max()) {
    return make_error("codec", "attempt out of range: " + std::to_string(*v));
  }
  return static_cast<int>(*v);
}

std::uint64_t id_of(std::int64_t v) { return static_cast<std::uint64_t>(v); }
std::int64_t wire_id(std::uint64_t v) { return static_cast<std::int64_t>(v); }

// --- report -----------------------------------------------------------------

// Each message's member names in ascending byte order: the order the
// encoders write them in, and the index a decoder's switch reads.
constexpr std::array<std::string_view, 8> kReportMembers = {
    "at",        "attempt", "completion_time", "execution_time",
    "idle_time", "job_id",  "kind",            "site"};

struct ReportFields {
  bool is_struct = false;
  std::optional<std::int64_t> job_id, site, attempt;
  std::optional<std::string> kind;
  std::optional<double> at, completion_time, execution_time, idle_time;
};

bool read_report(XrReader& in, ReportFields& f) {
  return read_if(in, 1, XrType::kStruct, f.is_struct, [&] {
    return in.known_members(1, kReportMembers, [&](std::size_t member) {
      switch (member) {
        case 0: return read_number(in, 2, f.at);
        case 1: return read_int(in, 2, f.attempt);
        case 2: return read_number(in, 2, f.completion_time);
        case 3: return read_number(in, 2, f.execution_time);
        case 4: return read_number(in, 2, f.idle_time);
        case 5: return read_int(in, 2, f.job_id);
        case 6: return read_string(in, 2, f.kind);
        default: return read_int(in, 2, f.site);
      }
    });
  });
}

Expected<TrackerReport> check_report(const ReportFields& f) {
  if (!f.is_struct) return make_error("codec", "report is not a struct");
  if (!f.job_id) return missing("int", "job_id");
  if (!f.kind) return missing("string", "kind");
  auto kind = report_kind_from(*f.kind);
  if (!kind) return Unexpected<Error>{kind.error()};
  if (!f.site) return missing("int", "site");
  if (!f.at) return missing("double", "at");
  if (std::isnan(*f.at)) return make_error("codec", "at is NaN");
  auto completion = non_negative(f.completion_time, "completion_time");
  if (!completion) return Unexpected<Error>{completion.error()};
  if (!f.execution_time) return missing("double", "execution_time");
  if (!f.idle_time) return missing("double", "idle_time");
  auto attempt = attempt_of(f.attempt);
  if (!attempt) return Unexpected<Error>{attempt.error()};
  TrackerReport report;
  report.job = JobId(id_of(*f.job_id));
  report.kind = *kind;
  report.site = SiteId(id_of(*f.site));
  report.at = *f.at;
  report.completion_time = *completion;
  report.execution_time = *f.execution_time;
  report.idle_time = *f.idle_time;
  report.attempt = *attempt;
  return report;
}

// --- plan -------------------------------------------------------------------

constexpr std::array<std::string_view, 13> kPlanMembers = {
    "attempt",      "batch_priority", "compute_time",    "dag_id",
    "inputs",       "job_id",         "job_name",        "output",
    "output_bytes", "persist_output", "persistent_site", "site",
    "speculative"};
constexpr std::array<std::string_view, 3> kInputMembers = {"bytes", "lfn",
                                                           "source"};

struct PlanFields {
  bool is_struct = false;
  std::optional<std::int64_t> job_id, dag_id, site, attempt, persistent_site;
  std::optional<std::string> job_name, output;
  std::optional<double> compute_time, output_bytes, batch_priority;
  bool has_batch_priority = false;
  bool persist_output = false;
  bool speculative = false;
  bool has_inputs = false;
  std::vector<PlannedInput> inputs;
  std::optional<Error> input_error;  ///< the first refused input's
};

Expected<PlannedInput> check_input(std::optional<std::string>& lfn,
                                   const std::optional<std::int64_t>& source,
                                   const std::optional<double>& bytes) {
  if (!lfn) return missing("string", "lfn");
  if (!source) return missing("int", "source");
  auto size = non_negative(bytes, "bytes");
  if (!size) return Unexpected<Error>{size.error()};
  return PlannedInput{std::move(*lfn), SiteId(id_of(*source)), *size};
}

/// One item of a plan's inputs, at depth 3.
bool read_input(XrReader& in, PlanFields& f) {
  std::optional<std::string> lfn;
  std::optional<std::int64_t> source;
  std::optional<double> bytes;
  bool is_struct = false;
  if (!read_if(in, 3, XrType::kStruct, is_struct, [&] {
        return in.known_members(3, kInputMembers, [&](std::size_t member) {
          switch (member) {
            case 0: return read_number(in, 4, bytes);
            case 1: return read_string(in, 4, lfn);
            default: return read_int(in, 4, source);
          }
        });
      })) {
    return false;
  }
  if (f.input_error) return true;  // an earlier input refused the plan
  auto input = check_input(lfn, source, bytes);
  if (input) {
    f.inputs.push_back(std::move(*input));
  } else {
    f.input_error = input.error();
  }
  return true;
}

bool read_plan(XrReader& in, PlanFields& f) {
  return read_if(in, 1, XrType::kStruct, f.is_struct, [&] {
    return in.known_members(1, kPlanMembers, [&](std::size_t member) {
      switch (member) {
        case 0: return read_int(in, 2, f.attempt);
        case 1:
          f.has_batch_priority = true;
          return read_number(in, 2, f.batch_priority);
        case 2: return read_number(in, 2, f.compute_time);
        case 3: return read_int(in, 2, f.dag_id);
        case 4:
          return read_if(in, 2, XrType::kArray, f.has_inputs, [&] {
            return in.items([&] { return read_input(in, f); });
          });
        case 5: return read_int(in, 2, f.job_id);
        case 6: return read_string(in, 2, f.job_name);
        case 7: return read_string(in, 2, f.output);
        case 8: return read_number(in, 2, f.output_bytes);
        case 9: return read_bool(in, 2, f.persist_output);
        case 10: return read_int(in, 2, f.persistent_site);
        case 11: return read_int(in, 2, f.site);
        default: return read_bool(in, 2, f.speculative);
      }
    });
  });
}

Expected<ExecutionPlan> check_plan(PlanFields& f) {
  if (!f.is_struct) return make_error("codec", "plan is not a struct");
  if (!f.job_id) return missing("int", "job_id");
  if (!f.dag_id) return missing("int", "dag_id");
  if (!f.job_name) return missing("string", "job_name");
  if (!f.site) return missing("int", "site");
  auto compute = non_negative(f.compute_time, "compute_time");
  if (!compute) return Unexpected<Error>{compute.error()};
  if (!f.output) return missing("string", "output");
  auto output_bytes = non_negative(f.output_bytes, "output_bytes");
  if (!output_bytes) return Unexpected<Error>{output_bytes.error()};
  auto attempt = attempt_of(f.attempt);
  if (!attempt) return Unexpected<Error>{attempt.error()};
  if (!f.has_inputs) return make_error("codec", "plan without inputs");
  if (f.has_batch_priority && !f.batch_priority) {
    return make_error("codec", "batch_priority is not a number");
  }
  if (f.input_error) return Unexpected<Error>{std::move(*f.input_error)};
  ExecutionPlan plan;
  plan.job = JobId(id_of(*f.job_id));
  plan.dag = DagId(id_of(*f.dag_id));
  plan.job_name = std::move(*f.job_name);
  plan.site = SiteId(id_of(*f.site));
  plan.compute_time = *compute;
  plan.inputs = std::move(f.inputs);
  plan.output = std::move(*f.output);
  plan.output_bytes = *output_bytes;
  plan.attempt = *attempt;
  plan.persist_output = f.persist_output;
  if (f.persistent_site) {
    plan.persistent_site = SiteId(id_of(*f.persistent_site));
  }
  plan.batch_priority = f.batch_priority.value_or(0.0);
  plan.speculative = f.speculative;
  return plan;
}

// --- dag --------------------------------------------------------------------

constexpr std::array<std::string_view, 3> kDagMembers = {"dag_id", "jobs",
                                                         "name"};
constexpr std::array<std::string_view, 7> kJobMembers = {
    "compute_time", "inputs",       "job_id", "name",
    "output",       "output_bytes", "parents"};

struct DagFields {
  bool is_struct = false;
  std::optional<std::int64_t> dag_id;
  std::optional<std::string> name;
  bool has_jobs = false;
  std::vector<workflow::JobSpec> jobs;
  std::vector<std::vector<JobId>> parents;  ///< per job
  std::unordered_set<JobId> ids;
  std::optional<Error> job_error;  ///< the first refused job's
};

/// A job's members as read.
struct JobFields {
  std::optional<std::int64_t> job_id;
  std::optional<std::string> name, output;
  std::optional<double> compute_time, output_bytes;
  bool has_inputs = false;
  bool has_parents = false;
  bool bad_input = false;
  bool bad_parent = false;
  std::vector<data::Lfn> inputs;
  std::vector<JobId> parents;
};

Expected<workflow::JobSpec> check_job(JobFields& j, const DagFields& f) {
  if (!j.job_id) return missing("int", "job_id");
  if (*j.job_id < 1) {
    return make_error("codec",
                      "job id out of range: " + std::to_string(*j.job_id));
  }
  const JobId id(id_of(*j.job_id));
  if (f.ids.contains(id)) {
    return make_error("codec",
                      "duplicate job id: " + std::to_string(*j.job_id));
  }
  if (!j.name) return missing("string", "name");
  auto compute = non_negative(j.compute_time, "compute_time");
  if (!compute) return Unexpected<Error>{compute.error()};
  if (!j.output) return missing("string", "output");
  auto output_bytes = non_negative(j.output_bytes, "output_bytes");
  if (!output_bytes) return Unexpected<Error>{output_bytes.error()};
  if (!j.has_inputs || !j.has_parents) {
    return make_error("codec", "job missing inputs/parents");
  }
  if (j.bad_input) return make_error("codec", "input is not a string");
  if (j.bad_parent) return make_error("codec", "parent is not an int");
  workflow::JobSpec spec;
  spec.id = id;
  spec.name = std::move(*j.name);
  spec.compute_time = *compute;
  spec.inputs = std::move(j.inputs);
  spec.output = std::move(*j.output);
  spec.output_bytes = *output_bytes;
  return spec;
}

/// One item of a DAG's jobs, at depth 3.
bool read_job(XrReader& in, DagFields& f) {
  JobFields j;
  bool is_struct = false;
  if (!read_if(in, 3, XrType::kStruct, is_struct, [&] {
        return in.known_members(3, kJobMembers, [&](std::size_t member) {
          switch (member) {
            case 0: return read_number(in, 4, j.compute_time);
            case 1:
              return read_if(in, 4, XrType::kArray, j.has_inputs, [&] {
                return in.items([&] {
                  std::optional<std::string> lfn;
                  if (!read_string(in, 5, lfn)) return false;
                  if (!lfn) j.bad_input = true;
                  if (lfn) j.inputs.push_back(std::move(*lfn));
                  return true;
                });
              });
            case 2: return read_int(in, 4, j.job_id);
            case 3: return read_string(in, 4, j.name);
            case 4: return read_string(in, 4, j.output);
            case 5: return read_number(in, 4, j.output_bytes);
            default:
              return read_if(in, 4, XrType::kArray, j.has_parents, [&] {
                return in.items([&] {
                  std::optional<std::int64_t> parent;
                  if (!read_int(in, 5, parent)) return false;
                  if (!parent) j.bad_parent = true;
                  if (parent) j.parents.emplace_back(id_of(*parent));
                  return true;
                });
              });
          }
        });
      })) {
    return false;
  }
  if (f.job_error) return true;  // an earlier job refused the DAG
  if (!is_struct) {
    f.job_error = Error{"codec", "job is not a struct"};
    return true;
  }
  auto spec = check_job(j, f);
  if (!spec) {
    f.job_error = spec.error();
    return true;
  }
  f.ids.insert(spec->id);
  f.jobs.push_back(std::move(*spec));
  f.parents.push_back(std::move(j.parents));
  return true;
}

bool read_dag(XrReader& in, DagFields& f) {
  return read_if(in, 1, XrType::kStruct, f.is_struct, [&] {
    return in.known_members(1, kDagMembers, [&](std::size_t member) {
      switch (member) {
        case 0: return read_int(in, 2, f.dag_id);
        case 1:
          return read_if(in, 2, XrType::kArray, f.has_jobs, [&] {
            return in.items([&] { return read_job(in, f); });
          });
        default: return read_string(in, 2, f.name);
      }
    });
  });
}

Expected<workflow::Dag> check_dag(DagFields& f) {
  if (!f.is_struct) return make_error("codec", "dag is not a struct");
  if (!f.dag_id) return missing("int", "dag_id");
  if (!f.name) return missing("string", "name");
  if (!f.has_jobs) return make_error("codec", "dag without jobs array");
  if (f.job_error) return Unexpected<Error>{std::move(*f.job_error)};
  workflow::Dag dag(DagId(id_of(*f.dag_id)), std::move(*f.name));
  for (workflow::JobSpec& job : f.jobs) dag.add_job(std::move(job));
  for (std::size_t i = 0; i < f.parents.size(); ++i) {
    const JobId child = dag.jobs()[i].id;
    for (const JobId parent : f.parents[i]) {
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

}  // namespace

// --- encoders and decoders --------------------------------------------------

std::string encode_report(const TrackerReport& report) {
  XrWriter out(kReportBytes);
  out.begin_call("sphinx.report");
  out.begin_param();
  out.begin_struct();
  out.double_member("at", report.at);
  out.int_member("attempt", report.attempt);
  out.double_member("completion_time", report.completion_time);
  out.double_member("execution_time", report.execution_time);
  out.double_member("idle_time", report.idle_time);
  out.int_member("job_id", wire_id(report.job.value()));
  out.string_member("kind", to_string(report.kind));
  out.int_member("site", wire_id(report.site.value()));
  out.end_struct();
  out.end_param();
  out.end_call();
  return std::move(out).take();
}

Expected<TrackerReport> decode_report(XrReader& in) {
  int params = 0;
  ReportFields f;
  if (!in.each_param([&](int i) {
        ++params;
        return i == 0 ? read_report(in, f) : in.skip(1);
      })) {
    return in.error();
  }
  if (params != 1) return make_error("bad_request", "expected [report]");
  return check_report(f);
}

std::string encode_plan(const ExecutionPlan& plan) {
  XrWriter out(kPlanBytes + kPlanInputBytes * plan.inputs.size());
  out.begin_call("sphinx_client.execute_plan");
  out.begin_param();
  out.begin_struct();
  out.int_member("attempt", plan.attempt);
  out.double_member("batch_priority", plan.batch_priority);
  out.double_member("compute_time", plan.compute_time);
  out.int_member("dag_id", wire_id(plan.dag.value()));
  out.begin_member("inputs");
  out.begin_array();
  for (const PlannedInput& input : plan.inputs) {
    out.begin_struct();
    out.double_member("bytes", input.bytes);
    out.string_member("lfn", input.lfn);
    out.int_member("source", wire_id(input.source.value()));
    out.end_struct();
  }
  out.end_array();
  out.end_member();
  out.int_member("job_id", wire_id(plan.job.value()));
  out.string_member("job_name", plan.job_name);
  out.string_member("output", plan.output);
  out.double_member("output_bytes", plan.output_bytes);
  out.bool_member("persist_output", plan.persist_output);
  out.int_member("persistent_site", wire_id(plan.persistent_site.value()));
  out.int_member("site", wire_id(plan.site.value()));
  out.bool_member("speculative", plan.speculative);
  out.end_struct();
  out.end_param();
  out.end_call();
  return std::move(out).take();
}

Expected<ExecutionPlan> decode_plan(XrReader& in) {
  int params = 0;
  PlanFields f;
  if (!in.each_param([&](int i) {
        ++params;
        return i == 0 ? read_plan(in, f) : in.skip(1);
      })) {
    return in.error();
  }
  if (params != 1) return make_error("bad_request", "expected [plan]");
  return check_plan(f);
}

std::string encode_dag(const std::string& client, UserId user,
                       const workflow::Dag& dag, double priority,
                       SimTime deadline) {
  XrWriter out(kDagBytes + kDagJobBytes * dag.size());
  out.begin_call("sphinx.submit_dag");
  out.begin_param();
  out.string_value(client);
  out.end_param();
  out.begin_param();
  out.int_value(wire_id(user.value()));
  out.end_param();
  out.begin_param();
  out.begin_struct();
  out.int_member("dag_id", wire_id(dag.id().value()));
  out.begin_member("jobs");
  out.begin_array();
  for (const workflow::JobSpec& job : dag.jobs()) {
    out.begin_struct();
    out.double_member("compute_time", job.compute_time);
    out.begin_member("inputs");
    out.begin_array();
    for (const data::Lfn& lfn : job.inputs) out.string_value(lfn);
    out.end_array();
    out.end_member();
    out.int_member("job_id", wire_id(job.id.value()));
    out.string_member("name", job.name);
    out.string_member("output", job.output);
    out.double_member("output_bytes", job.output_bytes);
    out.begin_member("parents");
    out.begin_array();
    for (const JobId parent : dag.parents(job.id)) {
      out.int_value(wire_id(parent.value()));
    }
    out.end_array();
    out.end_member();
    out.end_struct();
  }
  out.end_array();
  out.end_member();
  out.string_member("name", dag.name());
  out.end_struct();
  out.end_param();
  out.begin_param();
  out.double_value(priority);
  out.end_param();
  out.begin_param();
  out.double_value(deadline);
  out.end_param();
  out.end_call();
  return std::move(out).take();
}

Expected<DagSubmission> decode_dag(XrReader& in) {
  int params = 0;
  std::optional<std::string> client;
  std::optional<std::int64_t> user;
  DagFields dag;
  std::optional<double> priority;
  std::optional<double> deadline;
  if (!in.each_param([&](int i) {
        ++params;
        switch (i) {
          case 0: return read_string(in, 1, client);
          case 1: return read_int(in, 1, user);
          case 2: return read_dag(in, dag);
          case 3: return read_number(in, 1, priority);
          case 4: return read_number(in, 1, deadline);
          default: return in.skip(1);
        }
      })) {
    return in.error();
  }
  if (params < 3 || params > 5 || !client || !user) {
    return make_error(
        "bad_request",
        "expected [client_endpoint, user_id, dag, priority?, deadline?]");
  }
  auto checked = check_dag(dag);
  if (!checked) return Unexpected<Error>{checked.error()};
  DagSubmission submission;
  submission.client = std::move(*client);
  submission.user = UserId(id_of(*user));
  submission.dag = std::move(*checked);
  if (params >= 4) {
    if (!priority) return make_error("bad_request", "priority must be numeric");
    if (std::isnan(*priority)) {
      return make_error("bad_request", "priority must not be NaN");
    }
    submission.priority = *priority;
  }
  // +inf is a legal deadline: it is the client's best effort (kNever).
  if (params == 5) {
    if (!deadline) return make_error("bad_request", "deadline must be numeric");
    if (std::isnan(*deadline)) {
      return make_error("bad_request", "deadline must not be NaN");
    }
    submission.deadline = *deadline;
  }
  return submission;
}

void write_flag(XrWriter& out, bool flag) { out.bool_value(flag); }

Expected<bool> read_flag(XrReader& in) {
  XrType type;
  if (!in.open(1, type) || !in.skip_open(type, 1)) return in.error();
  if (type != XrType::kBool) {
    return make_error("codec", "reply is not a boolean");
  }
  return in.boolean();
}

void write_dag_id(XrWriter& out, DagId dag) {
  out.int_value(wire_id(dag.value()));
}

Expected<DagId> read_dag_id(XrReader& in) {
  std::optional<std::int64_t> id;
  if (!read_int(in, 1, id)) return in.error();
  if (!id) return make_error("codec", "reply is not an int");
  return DagId(id_of(*id));
}

std::string encode_dag_done(DagId dag, SimTime finished_at) {
  XrWriter out(kNoticeBytes);
  out.begin_call("sphinx_client.dag_done");
  out.begin_param();
  out.int_value(wire_id(dag.value()));
  out.end_param();
  out.begin_param();
  out.double_value(finished_at);
  out.end_param();
  out.end_call();
  return std::move(out).take();
}

Expected<DagId> decode_dag_done(XrReader& in) {
  int params = 0;
  std::optional<std::int64_t> dag;
  if (!in.each_param([&](int i) {
        ++params;
        return i == 0 ? read_int(in, 1, dag) : in.skip(1);
      })) {
    return in.error();
  }
  if (params != 2 || !dag) {
    return make_error("bad_request", "expected [dag_id, finished_at]");
  }
  return DagId(id_of(*dag));
}

std::string encode_cancel_attempt(JobId job, int attempt) {
  XrWriter out(kNoticeBytes);
  out.begin_call("sphinx_client.cancel_attempt");
  out.begin_param();
  out.int_value(wire_id(job.value()));
  out.end_param();
  out.begin_param();
  out.int_value(attempt);
  out.end_param();
  out.end_call();
  return std::move(out).take();
}

Expected<AttemptCancel> decode_cancel_attempt(XrReader& in) {
  int params = 0;
  std::optional<std::int64_t> job;
  std::optional<std::int64_t> attempt;
  if (!in.each_param([&](int i) {
        ++params;
        switch (i) {
          case 0: return read_int(in, 1, job);
          case 1: return read_int(in, 1, attempt);
          default: return in.skip(1);
        }
      })) {
    return in.error();
  }
  if (params != 2 || !job) {
    return make_error("bad_request", "expected [job_id, attempt]");
  }
  auto checked = attempt_of(attempt);
  if (!checked) return make_error("bad_request", checked.error().message);
  return AttemptCancel{JobId(id_of(*job)), *checked};
}

}  // namespace sphinx::core
