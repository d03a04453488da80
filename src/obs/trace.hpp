#pragma once
/// \file trace.hpp
/// Structured, sim-time-stamped trace events -- the flight recorder's
/// timeline half.
///
/// Every layer of the scheduling pipeline appends events here: server
/// sweeps, per-job state transitions with reasons, tracker timeouts and
/// extensions, site outages and repairs, bus deliveries and monitoring
/// samples.  Events carry only deterministic payloads (sim time,
/// endpoint names, ids, reasons), so two same-seed runs produce
/// byte-identical serialized output -- the property tools/check.sh's
/// determinism gate enforces.
///
/// An event is a fixed-size record (TraceEvent): sim time, kind and
/// value, and handles into the sink's name table for its source, its
/// subject and its detail.  A subject is a name plus an optional number,
/// so "job:42" is the name "job" with 42 and no job adds a name.  The
/// table stores each distinct name once, already JSON-escaped, and only
/// grows.  The log grows in fixed-size blocks, so growing it never moves
/// an event.  Text is made only by append_jsonl() (write_trace_jsonl
/// renders and writes one block at a time) and to_jsonl(); tests read an
/// event's fields through a TraceView.

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/time.hpp"

namespace sphinx::obs {

/// What happened.  One enumerator per instrumented decision point; the
/// serialized name is to_string(kind).
enum class TraceKind : std::uint8_t {
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

/// Handle of one name in a TraceSink's name table.  Name{} is the empty
/// name, which every table holds.
enum class Name : std::uint32_t {};

/// The entity an event acts on: a name and an optional number.  "job:42"
/// is {job, 42}; an endpoint such as "client-1" is a name alone.
struct Subject {
  constexpr Subject() = default;
  /// Implicit: a bare name is a subject.
  constexpr Subject(Name bare) : name(bare) {}
  constexpr Subject(Name base, std::uint64_t id) : name(base), number(id) {}

  Name name{};
  std::optional<std::uint64_t> number;
};

/// One recorded event: a fixed-size record whose texts are handles into
/// its sink's name table.  `source` is the emitting component (endpoint
/// or subsystem name), the subject (`subject`, and `number` when
/// `numbered`) the entity acted on, `detail` a free-form reason, `value`
/// a numeric payload whose meaning depends on the kind.
struct TraceEvent {
  SimTime at = 0.0;
  double value = 0.0;
  std::uint64_t number = 0;
  Name source{};
  Name subject{};
  Name detail{};
  TraceKind kind = TraceKind::kJobTransition;
  bool numbered = false;
};
static_assert(sizeof(TraceEvent) == 40, "a trace event is a 40-byte record");

/// A recorded event with its names looked up: the one way to read an
/// event's fields back.  The texts are JSON-escaped, as the table holds
/// them; `source` and `detail` point into the sink.
struct TraceView {
  SimTime at = 0.0;
  TraceKind kind = TraceKind::kJobTransition;
  std::string_view source;
  std::string subject;  ///< the name, then ':' and the number if it has one
  std::string_view detail;
  double value = 0.0;
};

/// Append-only event log and the name table its events point into.
/// Events must arrive in non-decreasing sim-time order (the engine
/// guarantees this for anything recorded from event context); the sink
/// enforces it as an invariant so a trace can always be merged or
/// binary-searched by time.
class TraceSink {
 public:
  TraceSink();
  // The table's index points into its own strings.
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Handle of `text`, interned on first use.  A name already in the
  /// table costs a lookup and allocates nothing.
  [[nodiscard]] Name name(std::string_view text);

  /// Appends one event; its handles must come from this sink's name().
  void record(const TraceEvent& event);

  /// Every event, names looked up.
  [[nodiscard]] std::vector<TraceView> events() const;  // sphinx-lint-allow(test-only): tests read the recorded events
  /// Every event of one kind, names looked up.
  [[nodiscard]] std::vector<TraceView> events(TraceKind kind) const;
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Events per block of the log.
  static constexpr std::size_t kBlockEvents = 1024;

  /// Appends events [first, last) to `out` as JSON Lines (one event
  /// object per line).
  void append_jsonl(std::string& out, std::size_t first,
                    std::size_t last) const;
  /// The whole log as JSON Lines.
  [[nodiscard]] std::string to_jsonl() const;

 private:
  using Block = std::array<TraceEvent, kBlockEvents>;

  [[nodiscard]] const TraceEvent& event(std::size_t index) const {
    return (*blocks_[index / kBlockEvents])[index % kBlockEvents];
  }
  [[nodiscard]] const std::string& text(Name name) const {
    return names_[static_cast<std::size_t>(name)];
  }
  [[nodiscard]] TraceView view(const TraceEvent& event) const;

  std::vector<std::unique_ptr<Block>> blocks_;
  std::size_t size_ = 0;
  SimTime last_at_ = 0.0;
  /// The name table: escaped text by handle.  A deque, so the index's
  /// views into it stay valid as it grows.
  std::deque<std::string> names_;
  /// The raw text of the few names escaping changes: the index is keyed
  /// by raw text, and every other name is its own key.
  std::deque<std::string> raw_keys_;
  std::unordered_map<std::string_view, Name> index_;  ///< raw text -> handle
};

/// Deterministic decimal rendering of a double: shortest round-trip form
/// via std::to_chars, identical across same-seed runs and platforms with
/// correct to_chars.  Shared by the trace and metrics serializers.
[[nodiscard]] std::string format_double(double value);

/// JSON string escaping for the few payloads that may carry quotes or
/// backslashes (endpoint names, reasons).
[[nodiscard]] std::string json_escape(std::string_view text);

}  // namespace sphinx::obs
