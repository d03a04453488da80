#pragma once
/// \file service.hpp
/// Grid monitoring infrastructure (MonALISA / condor_q query-job style).
///
/// The paper's monitoring interface "uses query jobs submitted to remote
/// sites to gather information ... typical parameters being monitored
/// include various job queue lengths" (section 3.4), and its evaluation
/// hinges on that data being *imperfect*: updated on a poll period,
/// subject to reporting latency, absent while a site is down, and
/// optionally noisy.  All four imperfections are modelled explicitly.
///
/// With a flight recorder attached, every poll also records what the
/// query job measured as `monitor_sample` events.  Those carry the true
/// value at poll time; the planner sees a different one -- the noisy
/// snapshot, published report_latency later.

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "grid/grid.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace sphinx::obs {
class Recorder;
}  // namespace sphinx::obs

namespace sphinx::monitor {

/// One monitored observation of a site.
struct SiteSnapshot {
  SiteId site;
  int cpus = 0;
  int queued = 0;
  int running = 0;
  int free_cpus = 0;
  /// When the query job actually ran.
  SimTime measured_at = -1.0;  // sphinx-lint-allow(test-only): staleness in this pair is measured from it
  /// When the value became visible.
  SimTime published_at = -1.0;  // sphinx-lint-allow(test-only): tests check the publication lag
};

/// Monitoring behaviour knobs.
struct MonitorConfig {
  Duration poll_period = minutes(5);   ///< how often query jobs run
  Duration report_latency = seconds(30);  ///< delay before data is visible
  double noise = 0.0;  ///< relative noise on queue counts, e.g. 0.2 = ±20 %
  bool enabled = true;
};

/// Polls every site on a period and serves the latest published snapshot.
class MonitoringService {
 public:
  MonitoringService(sim::Engine& engine, grid::Grid& grid,
                    MonitorConfig config, Rng rng);

  /// Starts the poll loop (staggers the first polls across the period).
  void start();

  /// Attaches the flight recorder: every poll records site.alive, and a
  /// successful one also queue.length / jobs.running / cpu.free, each as
  /// a `monitor_sample` event (subject "site:<id>") plus an observation
  /// of histogram "<metric>\@monitor".  Pass nullptr to detach.
  void set_recorder(obs::Recorder* recorder);

  /// The most recent *published* snapshot of a site, or nullopt if no
  /// query has ever succeeded.  Callers must treat the timestamps as part
  /// of the data -- this is how staleness reaches schedulers.
  [[nodiscard]] std::optional<SiteSnapshot> snapshot(SiteId site) const;

  /// Convenience: age of the published data at `now`; kNever if none.
  [[nodiscard]] Duration age(SiteId site, SimTime now) const;

  /// Static catalog information (always available, like the Grid3
  /// catalog): CPU count of a site.
  [[nodiscard]] int catalog_cpus(SiteId site) const;  // sphinx-lint-allow(test-only): tests check the static catalog

  [[nodiscard]] const MonitorConfig& config() const noexcept { return config_; }

 private:
  void poll_site(SiteId site);
  [[nodiscard]] int perturb(int value);

  sim::Engine& engine_;
  grid::Grid& grid_;
  MonitorConfig config_;
  Rng rng_;
  std::unordered_map<SiteId, SiteSnapshot> published_;
  std::vector<std::unique_ptr<sim::PeriodicProcess>> pollers_;
  obs::Recorder* recorder_ = nullptr;
  obs::Name source_name_{};  ///< "monitor" in the recorder's trace
  obs::Name site_name_{};    ///< "site", the subject of every sample
};

}  // namespace sphinx::monitor
