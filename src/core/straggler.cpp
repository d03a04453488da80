#include "core/straggler.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/stats.hpp"

namespace sphinx::core {
namespace {

/// A job is a straggler when its elapsed time since planning exceeds
/// kMultiplier x the kPercentile-th percentile of its (site, class)
/// runtime-sample distribution.
constexpr double kPercentile = 0.95;
constexpr double kMultiplier = 2.0;
/// Floor on the straggler threshold: never speculate before a job has
/// been outstanding at least this long, whatever the percentile says
/// (tiny-class histograms would otherwise replicate healthy jobs).
constexpr Duration kMinElapsed = minutes(5);
/// Decline to classify when the (site, class) sample ring -- falling
/// back to the class's all-site ring for cold sites -- holds fewer
/// samples than this.
constexpr std::size_t kMinSamples = 3;
/// Monitor staleness guard: when the freshest monitoring snapshot for a
/// job's site is older than this, the detector declines to classify the
/// job (a dark site's jobs all look like stragglers; the tracker timeout
/// owns that failure mode).  Counted as detector.stale_skips.
constexpr Duration kStaleAfter = minutes(45);

}  // namespace

const char* to_string(StragglerVerdict verdict) noexcept {
  switch (verdict) {
    case StragglerVerdict::kHealthy: return "healthy";
    case StragglerVerdict::kStraggler: return "straggler";
    case StragglerVerdict::kTooYoung: return "too-young";
    case StragglerVerdict::kNoData: return "no-data";
    case StragglerVerdict::kStaleMonitor: return "stale-monitor";
  }
  return "?";
}

int job_class_of(Duration compute_time) noexcept {
  // Bucket k holds compute times in (2^(k-1), 2^k] seconds; everything
  // at or below one second shares bucket 0.
  int cls = 0;
  double edge = 1.0;
  while (edge < compute_time && cls < 62) {
    edge *= 2.0;
    ++cls;
  }
  return cls;
}

StragglerDetector::StragglerDetector(
    const DataWarehouse& warehouse,
    const monitor::MonitoringService* monitoring)
    : warehouse_(warehouse), monitoring_(monitoring) {}

std::optional<Duration> StragglerDetector::threshold(SiteId site,
                                                     int job_class) const {
  std::vector<double> samples = warehouse_.runtime_samples(site, job_class);
  if (samples.size() < kMinSamples) {
    // Cold-site fallback: a site that never completed anything in this
    // class (a fresh site -- or a black hole) is judged against the
    // class's cross-site distribution instead of escaping judgement.
    samples = warehouse_.runtime_samples_all_sites(job_class);
  }
  if (samples.size() < kMinSamples) return std::nullopt;
  const double p = percentile(std::move(samples), kPercentile);
  return std::max(kMultiplier * p, kMinElapsed);
}

StragglerVerdict StragglerDetector::classify(const JobRecord& job,
                                             SimTime now) const {
  if (job.planned_at >= kNever) return StragglerVerdict::kTooYoung;
  const Duration elapsed = now - job.planned_at;
  if (elapsed < kMinElapsed) return StragglerVerdict::kTooYoung;
  // Staleness guard: judging a site on monitoring data older than the
  // threshold (or on none at all) conflates "slow job" with "dark site".
  // A deployment without any monitoring service has nothing to be stale,
  // so the guard is vacuous there.
  if (monitoring_ != nullptr) {
    const Duration age = monitoring_->age(job.site, now);
    if (age > kStaleAfter) {
      return StragglerVerdict::kStaleMonitor;
    }
  }
  const auto limit = threshold(job.site, job_class_of(job.compute_time));
  if (!limit.has_value()) return StragglerVerdict::kNoData;
  return elapsed > *limit ? StragglerVerdict::kStraggler
                          : StragglerVerdict::kHealthy;
}

}  // namespace sphinx::core
