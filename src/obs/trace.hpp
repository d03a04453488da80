#pragma once
/// \file trace.hpp
/// Structured, sim-time-stamped trace events -- the flight recorder's
/// timeline half.
///
/// Every layer of the scheduling pipeline appends typed events here:
/// server sweeps, per-job state transitions with reasons, tracker
/// timeouts and extensions, site outages and repairs, bus deliveries and
/// monitoring samples.  Events carry only deterministic payloads (sim
/// time, endpoint names, ids, reasons), so two same-seed runs produce
/// byte-identical serialized output -- the property tools/check.sh's
/// determinism gate enforces.

#include <cstddef>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace sphinx::obs {

/// What happened.  One enumerator per instrumented decision point; the
/// serialized name is to_string(kind).
enum class TraceKind {
  kSweepBegin,       ///< server sweep started; value = dirty-queue depth
  kSweepEnd,         ///< server sweep finished; value = plans sent
  kDagReceived,      ///< server accepted a DAG; value = job count
  kDagFinished,      ///< server observed a DAG complete; value = turnaround
  kJobTransition,    ///< warehouse job state change; detail = "old->new"
  kPlanSent,         ///< planner emitted an execution plan; value = attempt
  kTrackerTimeout,   ///< tracker cancelled a silent job; value = extensions used
  kTrackerExtension, ///< tracker deferred a timeout; value = extension number
  kSiteOutage,       ///< failure model took a site out; detail = mode
  kSiteRepair,       ///< failure model restored a site
  kBusDelivery,      ///< message delivered; value = delivery latency
  kMonitorSample,    ///< monitoring poll measured; detail = metric name
  kServerCrash,      ///< chaos harness killed a server; value = journal size
  kServerRecovery,   ///< journal-recovered server resumed; value = journal size
  kBusLoss,          ///< fault model lost a message on the wire
  kBusDuplicate,     ///< fault model injected a duplicate delivery
  kBusPartitionDrop, ///< message crossed a partitioned link; dropped
  kBusReorder,       ///< fault model added a jitter spike; value = extra delay
  kBusDrop,          ///< no recipient endpoint; detail = drop reason
  kCheckpoint,       ///< warehouse checkpoint published; detail = "seq:<n>",
                     ///< value = journal records compacted.  Emitted at
                     ///< image publication (before truncation), so a
                     ///< mid-checkpoint crash cannot make the chaotic
                     ///< trace diverge from the baseline's.
  kLeaseGranted,     ///< control plane granted a shard lease; detail = owner,
                     ///< value = lease epoch
  kLeaseExpired,     ///< heartbeats stopped; lease declared dead; value = epoch
  kLeaseFenced,      ///< stale-epoch renewal rejected; detail = owner,
                     ///< value = stale epoch presented
  kShardAdopted,     ///< surviving peer adopted a dead shard; detail =
                     ///< "old_owner->new_owner", value = new epoch
  kSpeculationLaunched,  ///< straggler detector replicated a job; detail =
                         ///< "site:<primary>-><spec>", value = spec attempt
  kSpeculationWon,       ///< a race resolved by completion; detail =
                         ///< "primary"/"spec", value = winning attempt
  kSpeculationCancelled, ///< losing/dead attempt retired; detail = reason
                         ///< ("loser-cancel", "primary_dead", "spec_dead"),
                         ///< value = retired attempt
};

[[nodiscard]] const char* to_string(TraceKind kind) noexcept;

/// One recorded event.  `source` is the emitting component (endpoint or
/// subsystem name), `subject` the entity acted on ("job:42", "dag:7",
/// "site:3"), `detail` a free-form reason string, `value` a numeric
/// payload whose meaning depends on the kind.
struct TraceEvent {
  SimTime at = 0.0;
  TraceKind kind = TraceKind::kJobTransition;
  std::string source;
  std::string subject;
  std::string detail;
  double value = 0.0;

  /// One JSON object, fixed key order, deterministic float formatting.
  [[nodiscard]] std::string to_json() const;
};

/// Append-only event log.  Events must arrive in non-decreasing sim-time
/// order (the engine guarantees this for anything recorded from event
/// context); the sink enforces it as an invariant so a trace can always
/// be merged or binary-searched by time.
class TraceSink {
 public:
  void record(TraceEvent event);

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {  // sphinx-lint-allow(test-only): tests read the recorded events
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }

  /// The whole log as JSON Lines (one event object per line).
  [[nodiscard]] std::string to_jsonl() const;

 private:
  std::vector<TraceEvent> events_;
  SimTime last_at_ = 0.0;
};

/// Deterministic decimal rendering of a double: shortest round-trip form
/// via std::to_chars, identical across same-seed runs and platforms with
/// correct to_chars.  Shared by the trace and metrics serializers.
[[nodiscard]] std::string format_double(double value);

/// JSON string escaping for the few payloads that may carry quotes or
/// backslashes (endpoint names, reasons).
[[nodiscard]] std::string json_escape(const std::string& text);

}  // namespace sphinx::obs
