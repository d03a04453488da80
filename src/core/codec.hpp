#pragma once
/// \file codec.hpp
/// The wire form of the five client/server methods.
///
/// Everything that crosses the client/server boundary is a real XML-RPC
/// call that is serialized to XML and parsed back on the other side:
/// abstract DAGs (client -> server, `sphinx.submit_dag`, answered with
/// the DAG's id), tracker reports (client -> server, `sphinx.report`),
/// execution plans (server -> client, `sphinx_client.execute_plan`),
/// DAG completions (`sphinx_client.dag_done`) and race-loser cancels
/// (`sphinx_client.cancel_attempt`), the last four answered with a flag
/// (write_flag()).  Each goes straight between its types and bytes:
///   - encode_* writes the whole <methodCall> through one rpc::XrWriter,
///     struct members in ascending byte order of their names (the bytes a
///     tree of std::map structs would have written; the rpc_outbox
///     journal and the chaos digests pin the server's calls);
///   - decode_* is the ClarensService params decoder of its method: it
///     reads every param off the rpc::XrReader, skips (validating) struct
///     members it does not know, and refuses with the first failing check
///     in the order documented at each decoder -- the order of the checks,
///     not of the members on the wire.  Bytes that are not well-formed
///     XML-RPC, anywhere in the call, leave the reader failed instead (the
///     service's parse fault), whatever the checks would have said.
/// An encoder and its decoder are separate functions: a method no program
/// sends leaves its encoder unreferenced, which sphinx_lint's test-only
/// rule reports.

#include "common/error.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"
#include "data/lfn.hpp"
#include "rpc/xmlrpc.hpp"
#include "workflow/dag.hpp"

namespace sphinx::core {

/// One input of an execution plan: which replica to stage from where.
struct PlannedInput {
  data::Lfn lfn;
  SiteId source;
  double bytes = 0.0;
};

/// The planner's decision for one job (paper section 3.2, Planner).
struct ExecutionPlan {
  JobId job;
  DagId dag;
  std::string job_name;
  SiteId site;
  Duration compute_time = 60.0;
  std::vector<PlannedInput> inputs;
  data::Lfn output;
  double output_bytes = 0.0;
  int attempt = 1;
  /// Planner step 4: whether the output must be copied to persistent
  /// storage once the job completes, and where.
  bool persist_output = false;
  SiteId persistent_site;
  /// QoS: within-VO batch priority forwarded to the site (bounded nudge
  /// derived from the request's priority and deadline).
  double batch_priority = 0.0;
  /// Straggler defense: this plan replicates a still-live earlier attempt
  /// and races it (first completion wins) instead of replacing it.
  bool speculative = false;
};

/// What the tracker tells the server about a job (section 3.3).
enum class ReportKind {
  kSubmitted,  ///< handed to the site's gatekeeper
  kRunning,    ///< started executing (carries idle time so far)
  kCompleted,  ///< carries completion + execution + idle durations
  kCancelled,  ///< tracker cancelled it (timeout); requests replanning
  kHeld,       ///< site held/failed it; requests replanning
};

[[nodiscard]] const char* to_string(ReportKind kind) noexcept;

struct TrackerReport {
  JobId job;
  ReportKind kind = ReportKind::kSubmitted;
  SiteId site;
  SimTime at = 0.0;
  Duration completion_time = 0.0;  ///< submit -> complete (kCompleted)
  Duration execution_time = 0.0;   ///< run start -> complete (kCompleted)
  Duration idle_time = 0.0;        ///< submit -> run start
  /// Which (job, attempt) this report describes, >= 1 (decode_report
  /// refuses anything else).  Two attempts can race concurrently under
  /// speculation, and the arbitration rules key off which one reported.
  int attempt = 0;
};

/// The params of `sphinx.submit_dag`: [client, user, dag, priority,
/// deadline].
struct DagSubmission {
  std::string client;  ///< the submitting client's endpoint
  UserId user;
  workflow::Dag dag;
  double priority = 0.0;
  SimTime deadline = kNever;  ///< +inf: best effort
};

/// `sphinx.submit_dag` call bytes.  Its reply is the DAG's id.
[[nodiscard]] std::string encode_dag(const std::string& client, UserId user,
                                     const workflow::Dag& dag, double priority,
                                     SimTime deadline);
/// Its params decoder.  The first failing check refuses, in this order:
///   1. other than 3 to 5 params, a client that is not a string or a user
///      that is not an int (`bad_request`);
///   2. the dag is not a struct; dag_id, name, the jobs array missing or
///      mistyped (`codec`);
///   3. per job, in array order: not a struct; job_id missing, mistyped,
///      below 1 or repeated; name; compute_time (missing, mistyped,
///      negative or not finite); output; output_bytes (likewise); inputs
///      or parents not arrays; an input not a string; a parent not an int
///      (`codec`);
///   4. per edge: an unknown parent, a self edge (`codec`);
///   5. a cycle or an edge whose data the child does not consume
///      (Dag::validate);
///   6. priority, then deadline: not a number, NaN (`bad_request`).
[[nodiscard]] Expected<DagSubmission> decode_dag(rpc::XrReader& in);

/// `sphinx_client.execute_plan` call bytes.
[[nodiscard]] std::string encode_plan(const ExecutionPlan& plan);
/// Its params decoder.  The first failing check refuses, in this order:
/// other than one param (`bad_request`); then (`codec`) a plan that is
/// not a struct; job_id, dag_id, job_name, site; compute_time (missing,
/// mistyped, negative or not finite); output; output_bytes (likewise);
/// attempt (missing, mistyped, outside [1, INT_MAX]); inputs not an
/// array; a batch_priority that is not a number; then per input, in
/// array order: lfn, source, bytes (likewise).
[[nodiscard]] Expected<ExecutionPlan> decode_plan(rpc::XrReader& in);

/// `sphinx.report` call bytes.
[[nodiscard]] std::string encode_report(const TrackerReport& report);
/// Its params decoder.  The first failing check refuses, in this order:
/// other than one param (`bad_request`); then (`codec`) a report that is
/// not a struct; job_id; kind (missing, mistyped, unknown); site; at
/// (missing, mistyped, NaN); completion_time (missing, mistyped, negative
/// or not finite); execution_time; idle_time; attempt (missing, mistyped,
/// outside [1, INT_MAX]).
[[nodiscard]] Expected<TrackerReport> decode_report(rpc::XrReader& in);

/// The reply of the four methods that only acknowledge: a boolean.
void write_flag(rpc::XrWriter& out, bool flag);
/// A boolean reply; any other value is refused (`codec`).
[[nodiscard]] Expected<bool> read_flag(rpc::XrReader& in);

/// `sphinx.submit_dag`'s reply: the DAG's id.
void write_dag_id(rpc::XrWriter& out, DagId dag);
/// An int reply; any other value is refused (`codec`).
[[nodiscard]] Expected<DagId> read_dag_id(rpc::XrReader& in);

/// `sphinx_client.dag_done` call bytes: [dag_id].  The client stamps the
/// arrival time itself.
[[nodiscard]] std::string encode_dag_done(DagId dag);
/// Its params decoder: other than one param, or one that is not an int,
/// is refused (`bad_request`).
[[nodiscard]] Expected<DagId> decode_dag_done(rpc::XrReader& in);

/// The params of `sphinx_client.cancel_attempt`: the attempt that lost a
/// speculation race.
struct AttemptCancel {
  JobId job;
  int attempt = 0;
};

/// `sphinx_client.cancel_attempt` call bytes: [job_id, attempt].
[[nodiscard]] std::string encode_cancel_attempt(JobId job, int attempt);
/// Its params decoder.  The first failing check refuses, in this order:
/// other than two params or a job id that is not an int; an attempt that
/// is not an int, or is outside [1, INT_MAX] (all `bad_request`).  An
/// out-of-range attempt names no attempt at all: it is never truncated
/// into a live attempt number.
[[nodiscard]] Expected<AttemptCancel> decode_cancel_attempt(
    rpc::XrReader& in);

}  // namespace sphinx::core
