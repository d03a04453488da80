#pragma once
/// \file campaign.hpp
/// The chaos-campaign engine: seeded fault-injection sweeps with
/// crash-recovery differential oracles.
///
/// One chaos *run* is a pair of simulations sharing a seed: the chaotic
/// run executes a synthesized ChaosSchedule (scheduled site outages plus
/// mid-run server fail-stop + journal recovery), the baseline run
/// executes the identical outage schedule uninterrupted.  Crash recovery
/// is supposed to be semantically invisible, so the chaotic run's
/// terminal warehouse state and trace (minus the harness's own crash
/// markers) must match the baseline byte-for-byte -- that is the
/// differential oracle; invariant oracles judge each run on its own.
///
/// A *campaign* fans runs out over exp::run_parallel, combines their
/// digests deterministically, and on the first failing run auto-shrinks
/// the schedule (see minimize.hpp) into a ReproCase that serializes to
/// `chaos_repro.json` and replays exactly via tools/chaos/sphinx_chaos.

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/oracle.hpp"
#include "chaos/schedule.hpp"
#include "common/error.hpp"
#include "common/time.hpp"
#include "core/state.hpp"

namespace sphinx::chaos {

/// Everything one chaos run needs (and everything a repro must pin).
struct ChaosRunConfig {
  std::uint64_t seed = 1;
  ScheduleConfig schedule;  ///< synthesis knobs (ignored on replay)
  int dag_count = 3;
  int jobs_per_dag = 6;
  core::Algorithm algorithm = core::Algorithm::kCompletionTime;
  SimTime horizon = hours(24);
  bool background_load = false;
  /// Straggler defense: race speculative replicas against detected
  /// stragglers (ServerConfig::speculate).  Chaos campaigns with this on
  /// prove the races stay journal-replayable under crashes and lossy
  /// wires.
  bool speculate = false;
  /// Test hook: perturb the warehouse right after each recovery so the
  /// differential oracle genuinely fails (exercises minimize + repro).
  bool inject_divergence = false;
};

/// Verdict + artifacts digest of one chaotic/baseline pair.
struct ChaosRunResult {
  std::uint64_t seed = 0;
  ChaosSchedule schedule;
  OracleReport invariants;    ///< chaotic run judged on its own
  OracleReport differential;  ///< chaotic vs baseline
  std::uint64_t digest = 0;   ///< FNV over the chaotic run's artifacts
  std::size_t crashes_executed = 0;
  /// Speculative replicas the chaotic run launched (straggler defense;
  /// 0 unless the run had ChaosRunConfig::speculate on).
  std::size_t speculations = 0;
  /// Chaotic run's total journal records ever appended (next_seq) --
  /// crash thresholds are expressed in this unit.
  std::size_t journal_records = 0;
  /// Records retained at end of run: the suffix after the last image.
  std::size_t journal_live_records = 0;

  [[nodiscard]] bool ok() const noexcept {
    return invariants.ok && differential.ok;
  }
  /// First violation ("" when ok()).
  [[nodiscard]] const std::string& violation() const noexcept {
    return invariants.ok ? differential.violation : invariants.violation;
  }
};

/// Synthesizes the run's schedule from its seed (testbed site names).
[[nodiscard]] ChaosSchedule synthesize_schedule(const ChaosRunConfig& config);

/// Runs the uninterrupted baseline and then the chaotic run, applies
/// every oracle, and digests the chaotic artifacts.  The chaotic run arms
/// each mid-checkpoint point on a checkpoint the baseline took: the first
/// at or past the point, or the last one for a point past it, so every
/// point fires while the baseline takes as many checkpoints as there are
/// points.  Deterministic: same (config, schedule) in, byte-identical
/// result out.
[[nodiscard]] ChaosRunResult run_chaos_pair(const ChaosRunConfig& config,
                                            const ChaosSchedule& schedule);

/// A minimized, replayable failure.
struct ReproCase {
  ChaosRunConfig config;
  ChaosSchedule schedule;
  std::string violation;
};

/// Campaign-level configuration.  Run i uses seed `base.seed + i`.
struct CampaignConfig {
  ChaosRunConfig base;
  int runs = 10;
  unsigned max_threads = 0;  ///< 0 = hardware concurrency
  /// Shrink the first failing run's schedule into `repro` (slow: each
  /// minimization step replays the run pair).
  bool minimize_failures = true;
};

/// Campaign verdict.  `digest` combines per-run digests in input order,
/// so two invocations of the same campaign must report the same value.
struct CampaignResult {
  int runs = 0;
  int failures = 0;
  std::uint64_t digest = 0;
  std::vector<ChaosRunResult> results;  ///< per run, input order
  /// Minimized repro of the first failing run (when any failed and
  /// minimization is on).
  std::vector<ReproCase> repros;
};

[[nodiscard]] CampaignResult run_campaign(const CampaignConfig& config);

/// Straggler-defense A/B probe: one degraded-heavy outage schedule, two
/// runs sharing seed + schedule -- speculation OFF vs ON.  The arms see
/// byte-identical grids, workloads and fault draws, so every difference
/// in tail latency is the defense's doing.
struct StragglerProbeConfig {
  std::uint64_t seed = 1;
  /// Synthesis knobs; start from straggler_schedule_defaults().
  ScheduleConfig schedule;
  int dag_count = 6;
  int jobs_per_dag = 6;
};

/// One arm (speculation off or on) of the probe.
struct StragglerArmResult {
  bool speculate = false;
  std::size_t dags_total = 0;
  std::size_t dags_finished = 0;
  /// Completion time of every finished DAG, submission order.
  std::vector<double> dag_completions;
  std::size_t timeouts = 0;      ///< tracker-initiated cancellations
  std::size_t speculations = 0;  ///< replicas launched (ON arm only)
  std::size_t won_primary = 0;
  std::size_t won_spec = 0;
  std::size_t stale_skips = 0;   ///< detector declined: monitoring stale
  std::uint64_t digest = 0;      ///< FNV over trace + journal (determinism)
};

struct StragglerProbeResult {
  std::uint64_t seed = 0;
  StragglerArmResult off;
  StragglerArmResult on;
};

/// The degraded-heavy synthesis knobs the straggler gate uses: long
/// black-hole/degraded outages across several sites, no server crashes,
/// a mild lossy-wire window, no partitions.
[[nodiscard]] ScheduleConfig straggler_schedule_defaults();

/// Runs both arms on the synthesized schedule.  Deterministic: same
/// config in, byte-identical result out.
[[nodiscard]] StragglerProbeResult run_straggler_probe(
    const StragglerProbeConfig& config);

/// `chaos_repro.json` round-trip.
[[nodiscard]] std::string to_json(const ReproCase& repro);
[[nodiscard]] Expected<ReproCase> repro_from_json(const std::string& text);

/// Replays a repro exactly (explicit schedule, no synthesis).
[[nodiscard]] ChaosRunResult replay(const ReproCase& repro);

}  // namespace sphinx::chaos
