#include "grid/failure.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "obs/recorder.hpp"

namespace sphinx::grid {
namespace {

bool weight_ok(double w) { return std::isfinite(w) && w >= 0.0; }

/// Mean of the exponential time between background load's heavy/light
/// phase flips.
constexpr Duration kMeanPhase = minutes(25);

}  // namespace

const char* to_string(OutageMode mode) noexcept {
  switch (mode) {
    case OutageMode::kDown: return "down";
    case OutageMode::kBlackHole: return "black_hole";
    case OutageMode::kDegraded: return "degraded";
  }
  return "unknown";
}

FailureModel::FailureModel(sim::Engine& engine, Site& site,
                           FailureConfig config, Rng rng)
    : engine_(engine), site_(site), config_(config), rng_(std::move(rng)) {
  SPHINX_PRECONDITION(weight_ok(config_.weight_down) &&
                          weight_ok(config_.weight_black_hole) &&
                          weight_ok(config_.weight_degraded),
                      "failure mode weights must be non-negative and finite");
}

void FailureModel::start() {
  if (config_.permanent_black_hole) {
    site_.become_black_hole();
    record_outage("black_hole(permanent)");
    return;
  }
  if (!config_.schedule.empty()) {
    // Deterministic, pre-planned outages (the chaos harness path).  The
    // schedule is its own source of randomness, so the renewal process
    // stays off even when `enabled` is set.
    for (std::size_t i = 0; i < config_.schedule.size(); ++i) {
      const ScheduledOutage& outage = config_.schedule[i];
      SPHINX_PRECONDITION(outage.at >= 0.0 && outage.duration > 0.0,
                          "scheduled outage needs t >= 0, duration > 0");
      if (i > 0) {
        const ScheduledOutage& prev = config_.schedule[i - 1];
        SPHINX_PRECONDITION(prev.at + prev.duration <= outage.at,
                            "scheduled outages must be sorted, non-overlap");
      }
      engine_.schedule_at(outage.at, "failure:fail",
                          [this, i] { fail_scheduled(i); });
    }
    return;
  }
  if (config_.enabled) schedule_failure();
}

void FailureModel::set_recorder(obs::Recorder* recorder) {
  recorder_ = recorder;
  if (recorder_ == nullptr) return;
  source_name_ = recorder_->name("failure:", site_.name());
  site_name_ = recorder_->name("site");
}

void FailureModel::record_outage(const char* mode) {
  if (recorder_ == nullptr) return;
  recorder_->event(obs::TraceKind::kSiteOutage, source_name_,
                   {site_name_, site_.id().value()}, recorder_->name(mode),
                   static_cast<double>(outages_));
  recorder_->count("grid", "site.outages");
}

void FailureModel::schedule_failure() {
  const Duration uptime = rng_.exponential(config_.mean_uptime);
  engine_.schedule_in(uptime, "failure:fail", [this] { fail(); });
}

void FailureModel::apply_mode(OutageMode mode) {
  ++outages_;
  switch (mode) {
    case OutageMode::kDown: site_.go_down(); break;
    case OutageMode::kBlackHole: site_.become_black_hole(); break;
    case OutageMode::kDegraded: site_.degrade(); break;
  }
  record_outage(to_string(mode));
}

void FailureModel::fail() {
  const double total = config_.weight_down + config_.weight_black_hole +
                       config_.weight_degraded;
  OutageMode mode = OutageMode::kDown;
  if (total > 0.0) {
    // An all-zero mode mix has no distribution to draw from, so the
    // outage takes the `weight_down` meaning (plain downtime) instead of
    // falling through to an arbitrary mode.
    const double draw = rng_.uniform(0.0, total);
    if (draw < config_.weight_down) {
      mode = OutageMode::kDown;
    } else if (draw < config_.weight_down + config_.weight_black_hole) {
      mode = OutageMode::kBlackHole;
    } else {
      mode = OutageMode::kDegraded;
    }
  }
  apply_mode(mode);
  const Duration downtime = rng_.exponential(config_.mean_downtime);
  engine_.schedule_in(downtime, "failure:repair", [this] { repair(); });
}

void FailureModel::fail_scheduled(std::size_t index) {
  const ScheduledOutage& outage = config_.schedule[index];
  apply_mode(outage.mode);
  engine_.schedule_at(outage.at + outage.duration, "failure:repair",
                      [this] { repair_scheduled(); });
}

void FailureModel::repair_scheduled() {
  site_.recover();
  record_repair();
}

void FailureModel::repair() {
  site_.recover();
  record_repair();
  schedule_failure();
}

void FailureModel::record_repair() {
  if (recorder_ == nullptr) return;
  recorder_->event(obs::TraceKind::kSiteRepair, source_name_,
                   {site_name_, site_.id().value()}, {},
                   static_cast<double>(outages_));
  recorder_->count("grid", "site.repairs");
}

BackgroundLoad::BackgroundLoad(sim::Engine& engine, Site& site,
                               BackgroundLoadConfig config, Rng rng)
    : engine_(engine), site_(site), config_(config), rng_(std::move(rng)) {}

void BackgroundLoad::start() {
  if (!config_.enabled) return;
  for (int i = 0; i < config_.prefill_jobs; ++i) {
    RemoteJob job;
    job.vo = kBackgroundVo;
    job.compute_time = rng_.exponential(config_.mean_duration);
    site_.submit(std::move(job), nullptr);
  }
  if (config_.burstiness > 0) {
    heavy_ = rng_.chance(0.5);
    schedule_phase_flip();
  }
  schedule_arrival();
}

void BackgroundLoad::schedule_phase_flip() {
  const Duration phase = rng_.exponential(kMeanPhase);
  engine_.schedule_in(phase, "bg:phase", [this] {
    heavy_ = !heavy_;
    schedule_phase_flip();
  });
}

void BackgroundLoad::schedule_arrival() {
  // The heavy/light phase scales the arrival *rate*, i.e. divides the
  // inter-arrival mean.
  double rate_scale = 1.0;
  if (config_.burstiness > 0) {
    rate_scale = heavy_ ? 1.0 + config_.burstiness : 1.0 - config_.burstiness;
    if (rate_scale <= 0.05) rate_scale = 0.05;
  }
  const Duration gap =
      rng_.exponential(config_.mean_interarrival / rate_scale);
  engine_.schedule_in(gap, "bg:arrival", [this] {
    RemoteJob job;
    job.vo = kBackgroundVo;
    job.compute_time = rng_.exponential(config_.mean_duration);
    // Background jobs do not stage data and nobody watches them.
    site_.submit(std::move(job), nullptr);
    schedule_arrival();
  });
}

}  // namespace sphinx::grid
