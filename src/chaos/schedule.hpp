#pragma once
/// \file schedule.hpp
/// Seeded synthesis of adversarial failure schedules.
///
/// A chaos run's entire misbehaviour plan is one ChaosSchedule: per-site
/// outage lists (fed to grid::FailureModel's schedule-driven mode) plus
/// the journal-record positions at which the SPHINX server is
/// fail-stopped and journal-recovered mid-run.  Schedules are pure data:
/// synthesize() is a deterministic function of (seed, config, site
/// names), they serialize to JSON for the repro file, and the minimizer
/// shrinks them entry-by-entry without re-deriving anything from the
/// seed.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "chaos/json.hpp"
#include "common/error.hpp"
#include "common/time.hpp"
#include "grid/failure.hpp"

namespace sphinx::chaos {

/// One network-fault window.  Loss/duplication/reorder windows apply to
/// every RPC link; a partition window severs the client<->server links
/// (both directions) for its whole duration.
struct NetFaultWindow {
  SimTime at = 0.0;
  Duration duration = 0.0;
  double loss = 0.0;        ///< P(message lost) per transmission
  double duplicate = 0.0;   ///< P(message delivered twice)
  double reorder = 0.0;     ///< P(jitter spike)
  Duration reorder_spike = 5.0;
  bool partition = false;
};

/// One run's complete failure plan.
struct ChaosSchedule {
  /// Outages per site name, each list sorted and non-overlapping
  /// (FailureModel's schedule contract).
  std::map<std::string, std::vector<grid::ScheduledOutage>> outages;
  /// Journal-record counts (total ever appended, compaction-immune) at
  /// which the server is crashed, strictly increasing.  Each entry arms
  /// a fail-stop for the first check point at or past that many journal
  /// records; recovery happens in the same engine event.
  std::vector<std::size_t> crash_records;
  /// Like crash_records, but the fail-stop fires *inside* the first
  /// eligible checkpoint: between image publication and journal
  /// truncation, the window where durable state is an image plus an
  /// uncompacted journal.  No-ops when the run has checkpointing off.
  /// Strictly increasing within this list; a collision with a
  /// crash_records entry is fine (the campaign arms points one at a
  /// time, regular before mid on a tie).
  std::vector<std::size_t> mid_ckpt_crashes;
  /// Network-fault windows (lossy wire + partitions), sorted by start.
  /// Applied identically to the chaotic and baseline runs, so the
  /// differential oracle checks recovery *under* an unreliable network
  /// rather than comparing different networks.
  std::vector<NetFaultWindow> net_windows;

  [[nodiscard]] std::size_t outage_count() const;
};

/// A burst's outages start within this window of the burst instant.
inline constexpr Duration kBurstWindow = minutes(5);
/// Lossy-wire windows: exponential durations with this mean, floored at
/// kNetMinDuration, and this jitter-spike bound on their reorders.
inline constexpr Duration kNetMeanDuration = minutes(10);
inline constexpr Duration kNetMinDuration = minutes(1);
inline constexpr Duration kNetReorderSpike = 5.0;
/// Length of every synthesized client<->server partition.
inline constexpr Duration kNetPartitionDuration = 60.0;

/// Synthesis knobs.  Defaults give a mixed-mode schedule with one burst
/// and one mid-run crash -- adversarial but quick to simulate.
struct ScheduleConfig {
  /// Outage starts are drawn in [0, span); repairs may run past it.
  SimTime span = hours(8);
  /// Independent single-site outage draws.
  int outages = 10;
  Duration mean_duration = minutes(30);
  Duration min_duration = minutes(2);
  /// Outage mode mix (normalized; all-zero degenerates to plain down).
  double weight_down = 1.0;
  double weight_black_hole = 0.4;
  double weight_degraded = 0.4;
  /// Correlated multi-site events: every burst picks `burst_sites`
  /// distinct sites and starts an outage of the same mode on each within
  /// kBurstWindow of the burst instant.
  int bursts = 1;
  int burst_sites = 3;
  /// Mid-run server crash points, drawn uniformly from
  /// [min_crash_record, max_crash_record] and kept strictly increasing.
  /// Points past the run's final journal length never fire, so the
  /// default range sits inside a default run's ~300-record journal.
  int crashes = 1;
  std::size_t min_crash_record = 40;
  std::size_t max_crash_record = 260;
  /// Mid-checkpoint crash points, drawn from the same record range (and
  /// the same RNG stream, after the regular crash draws, so raising this
  /// leaves the regular points unchanged).
  int mid_ckpt_crashes = 1;
  /// Network-fault windows: `net_windows` lossy-wire spans drawn in
  /// [0, span) with exponential durations, plus `net_partitions` fixed
  /// kNetPartitionDuration client<->server partitions.  On by default:
  /// the crash/recovery oracle should not assume a perfect wire.
  int net_windows = 1;
  double net_loss = 0.05;
  double net_duplicate = 0.02;
  double net_reorder = 0.05;
  int net_partitions = 1;
};

/// Deterministically synthesizes a schedule: same (seed, config, sites)
/// always yields the identical schedule.  Per-site lists come out sorted
/// and non-overlapping (overlaps from independent draws are resolved by
/// pushing the later outage behind the earlier repair, 1 s apart).
[[nodiscard]] ChaosSchedule synthesize(std::uint64_t seed,
                                       const ScheduleConfig& config,
                                       const std::vector<std::string>& sites);

/// JSON round-trip for the repro file.  to_json is deterministic (map
/// order, fixed key order, to_chars numbers).
[[nodiscard]] std::string to_json(const ChaosSchedule& schedule);
[[nodiscard]] Expected<ChaosSchedule> schedule_from_json(
    const std::string& text);
/// Same, from an already-parsed document subtree (repro files embed the
/// schedule as one member of a larger object).
[[nodiscard]] Expected<ChaosSchedule> schedule_from_value(
    const JsonValue& value);

}  // namespace sphinx::chaos
