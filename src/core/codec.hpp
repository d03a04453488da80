#pragma once
/// \file codec.hpp
/// XML-RPC encodings of the client/server message payloads.
///
/// Everything that crosses the client/server boundary is a real XML-RPC
/// value that is serialized to XML and parsed back on the other side:
/// abstract DAGs (client -> server), execution plans (server -> client),
/// and tracker reports (client -> server).

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

/// DAG <-> XML-RPC value.  decode_dag refuses a job id below 1 or
/// repeated, a self edge, and a compute_time or output_bytes that is
/// negative or not finite (`codec` errors), and a cycle (`dag_cycle`).
[[nodiscard]] rpc::XrValue encode_dag(const workflow::Dag& dag);
[[nodiscard]] Expected<workflow::Dag> decode_dag(const rpc::XrValue& value);

/// Plan <-> XML-RPC value.  decode_plan refuses a compute_time that is
/// negative or not finite.
[[nodiscard]] rpc::XrValue encode_plan(const ExecutionPlan& plan);
[[nodiscard]] Expected<ExecutionPlan> decode_plan(const rpc::XrValue& value);

/// An attempt number off the wire: an int in [1, INT_MAX].  Missing,
/// mistyped, non-positive or wider-than-int values are a `codec` error,
/// never truncated into a live attempt number.
[[nodiscard]] Expected<int> decode_attempt(const rpc::XrValue* value);

/// Report <-> XML-RPC value.  decode_report refuses a NaN `at` and a
/// completion_time that is negative or not finite.
[[nodiscard]] rpc::XrValue encode_report(const TrackerReport& report);
[[nodiscard]] Expected<TrackerReport> decode_report(const rpc::XrValue& value);

}  // namespace sphinx::core
