#pragma once
/// \file failure.hpp
/// Unplanned site downtime -- the "dynamic availability" of the paper.
///
/// Each site gets an alternating up/down renewal process: up-times and
/// repair-times are exponentially distributed, and each outage picks one
/// of the configured failure modes (fully down, black hole, degraded).
/// A site can also be configured as a *permanent* black hole -- the
/// "site that accepts jobs and never completes them" that motivates the
/// feedback experiments (Figures 2 and 8).

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "grid/site.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace sphinx::obs {
class Recorder;
}  // namespace sphinx::obs

namespace sphinx::grid {

/// What an outage does to the site while it lasts.
enum class OutageMode {
  kDown,       ///< rejects submissions, running jobs stall
  kBlackHole,  ///< accepts jobs, never completes them
  kDegraded,   ///< slow responder: completes, but far slower
};

[[nodiscard]] const char* to_string(OutageMode mode) noexcept;

/// One pre-planned outage for the schedule-driven injection mode.
struct ScheduledOutage {
  SimTime at = 0.0;       ///< absolute outage start
  Duration duration = 0.0;  ///< strictly positive; repair at `at + duration`
  OutageMode mode = OutageMode::kDown;
};

/// Failure behaviour of one site.
struct FailureConfig {
  bool enabled = false;
  Duration mean_uptime = hours(6);
  Duration mean_downtime = minutes(30);
  /// Mode mix for each outage; weights need not sum to 1 (normalized).
  double weight_down = 1.0;
  double weight_black_hole = 0.0;
  double weight_degraded = 0.0;
  /// If true the site starts and stays a black hole forever.
  bool permanent_black_hole = false;
  /// Schedule-driven mode: when non-empty this exact outage list replaces
  /// the exponential renewal process (and ignores `enabled`).  Entries
  /// must be sorted by `at` and non-overlapping: each repair
  /// (`at + duration`) must not run past the next entry's `at`.
  std::vector<ScheduledOutage> schedule;
};

/// Drives one site through up/down cycles on the engine.  Mode weights
/// must be non-negative and finite (contract-checked); an all-zero mix
/// falls back to plain downtime (`weight_down` semantics) instead of
/// selecting a mode from an undefined distribution.
class FailureModel {
 public:
  FailureModel(sim::Engine& engine, Site& site, FailureConfig config, Rng rng);

  /// Begins the renewal process (applies permanent modes immediately).
  void start();

  /// Attaches a flight recorder; outages and repairs are traced with
  /// their failure mode, from "failure:<site name>" about "site:<id>".
  /// Observation only.
  void set_recorder(obs::Recorder* recorder);

  [[nodiscard]] std::size_t outages() const noexcept { return outages_; }
  [[nodiscard]] const FailureConfig& config() const noexcept { return config_; }

 private:
  void schedule_failure();
  void fail();
  void repair();
  void apply_mode(OutageMode mode);
  void fail_scheduled(std::size_t index);
  void repair_scheduled();
  void record_outage(const char* mode);
  void record_repair();

  sim::Engine& engine_;
  Site& site_;
  FailureConfig config_;
  Rng rng_;
  std::size_t outages_ = 0;
  obs::Recorder* recorder_ = nullptr;
  obs::Name source_name_{};  ///< "failure:<site name>"
  obs::Name site_name_{};    ///< "site"
};

/// The VO background jobs carry; a site applies its local priority for
/// this VO to them.
inline constexpr const char* kBackgroundVo = "background";

/// Poisson background load from other grid users (the site's "dynamic
/// load").  Jobs arrive with exponential inter-arrival times, occupy CPUs
/// for exponential durations, and carry kBackgroundVo -- this is the
/// traffic a monitoring system sees in the queue lengths.
struct BackgroundLoadConfig {
  bool enabled = false;
  Duration mean_interarrival = 30.0;  ///< seconds between arrivals
  Duration mean_duration = minutes(10);
  /// Jobs injected immediately at start so the site begins in (approx.)
  /// steady state instead of empty -- remaining times of in-service
  /// exponential jobs are again exponential, so fresh draws are correct.
  int prefill_jobs = 0;
  /// Non-stationarity: arrival rate alternates between (1 + burstiness)
  /// and (1 - burstiness) times the base rate, switching phase after
  /// exponential times with a mean of 25 minutes (kMeanPhase in
  /// failure.cpp).  This is what makes point-in-time monitoring data go
  /// stale in a way that matters (paper section 2: "the dynamic load ...
  /// of the resources").
  double burstiness = 0.0;
};

class BackgroundLoad {
 public:
  BackgroundLoad(sim::Engine& engine, Site& site, BackgroundLoadConfig config,
                 Rng rng);

  void start();

 private:
  void schedule_arrival();
  void schedule_phase_flip();

  sim::Engine& engine_;
  Site& site_;
  BackgroundLoadConfig config_;
  Rng rng_;
  bool heavy_ = false;
};

}  // namespace sphinx::grid
