#pragma once
/// \file straggler.hpp
/// Straggler detector: learns per-(site, job-class) runtime percentiles
/// and flags in-flight jobs whose elapsed time exceeds twice the learned
/// 95th percentile (the thresholds are constants in straggler.cpp).
///
/// The detector is the trigger half of the straggler defense: a flagged
/// job gets a speculative replica planned onto a second site and the two
/// attempts race, first completion wins (see Planner::plan_speculative
/// and the arbitration rules in MessageHandler).  Everything the
/// detector reads is journaled warehouse state -- the runtime-sample
/// rings fed by completion reports -- plus the monitoring service's
/// published timestamps, so its verdicts replay identically on a
/// recovered server.  It holds no state of its own and draws no random
/// numbers.

#include <optional>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "core/warehouse.hpp"
#include "monitor/service.hpp"

namespace sphinx::core {

/// Outcome of classifying one in-flight job.
enum class StragglerVerdict {
  kHealthy,       ///< within the learned threshold
  kStraggler,     ///< elapsed exceeded multiplier x percentile
  kTooYoung,      ///< below the min-elapsed floor
  kNoData,        ///< too few samples even with the all-site fallback
  kStaleMonitor,  ///< monitoring data too old to judge the site
};

[[nodiscard]] const char* to_string(StragglerVerdict verdict) noexcept;

/// log2 bucket of a job's expected compute time.  Jobs within one bucket
/// have runtimes within a factor of two of each other, so one percentile
/// distribution per (site, class) stays meaningful across heterogeneous
/// workloads without per-job-name bookkeeping.
[[nodiscard]] int job_class_of(Duration compute_time) noexcept;

class StragglerDetector {
 public:
  StragglerDetector(const DataWarehouse& warehouse,
                    const monitor::MonitoringService* monitoring);

  /// Classifies one in-flight (kSubmitted/kRunning) job at `now`.
  /// kStaleMonitor takes precedence over the percentile test: a dark
  /// site's jobs all look like stragglers, and that failure mode belongs
  /// to the tracker timeout, not to replication.
  [[nodiscard]] StragglerVerdict classify(const JobRecord& job,
                                          SimTime now) const;

  /// The elapsed-time threshold classify() applies for (site, class):
  /// max(2 x p95, 5 min).  nullopt when fewer than 3 samples exist even
  /// after the all-site fallback.  Exposed for tests and diagnostics.
  [[nodiscard]] std::optional<Duration> threshold(SiteId site,  // sphinx-lint-allow(test-only): classify() in this pair applies it
                                                  int job_class) const;

 private:
  const DataWarehouse& warehouse_;
  const monitor::MonitoringService* monitoring_;  ///< may be null
};

}  // namespace sphinx::core
