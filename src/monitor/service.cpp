#include "monitor/service.hpp"

#include <cmath>
#include <string_view>

#include "obs/recorder.hpp"

namespace sphinx::monitor {

MonitoringService::MonitoringService(sim::Engine& engine, grid::Grid& grid,
                                     MonitorConfig config, Rng rng)
    : engine_(engine), grid_(grid), config_(config), rng_(std::move(rng)) {}

void MonitoringService::start() {
  if (!config_.enabled) return;
  const std::size_t n = grid_.site_ids().size();
  for (std::size_t i = 0; i < n; ++i) {
    const SiteId site = grid_.site_ids()[i];
    // Stagger polls across the period like independent query jobs would.
    const Duration offset =
        config_.poll_period * static_cast<double>(i) / static_cast<double>(n);
    auto poller = std::make_unique<sim::PeriodicProcess>(
        engine_, "monitor:poll", config_.poll_period,
        [this, site] { poll_site(site); }, offset);
    poller->start();
    pollers_.push_back(std::move(poller));
  }
}

void MonitoringService::set_recorder(obs::Recorder* recorder) {
  recorder_ = recorder;
  if (recorder_ == nullptr) return;
  source_name_ = recorder_->name("monitor");
  site_name_ = recorder_->name("site");
}

void MonitoringService::poll_site(SiteId site) {
  const auto status = grid_.site(site).query();
  const auto emit = [&](std::string_view name, double value) {
    if (recorder_ == nullptr) return;
    recorder_->event(obs::TraceKind::kMonitorSample, source_name_,
                     {site_name_, site.value()}, recorder_->name(name),
                     value);
    recorder_->observe("monitor", name, value);
  };
  if (!status.has_value()) {
    // Site down: the old published snapshot just goes stale.
    emit("site.alive", 0.0);
    return;
  }
  emit("site.alive", 1.0);
  emit("queue.length", status->queued);
  emit("jobs.running", status->running);
  emit("cpu.free", status->free_cpus);
  SiteSnapshot snap;
  snap.site = site;
  snap.cpus = status->cpus;
  snap.queued = perturb(status->queued);
  snap.running = perturb(status->running);
  snap.free_cpus = status->free_cpus;
  snap.measured_at = engine_.now();
  // Publication is delayed by the reporting pipeline.
  engine_.schedule_in(config_.report_latency, "monitor:publish",
                      [this, snap]() mutable {
                        snap.published_at = engine_.now();
                        published_[snap.site] = snap;
                      });
}

int MonitoringService::perturb(int value) {
  if (config_.noise <= 0 || value == 0) return value;
  const double factor = 1.0 + rng_.uniform(-config_.noise, config_.noise);
  return std::max(0, static_cast<int>(std::lround(value * factor)));
}

std::optional<SiteSnapshot> MonitoringService::snapshot(SiteId site) const {
  const auto it = published_.find(site);
  if (it == published_.end()) return std::nullopt;
  return it->second;
}

Duration MonitoringService::age(SiteId site, SimTime now) const {
  const auto snap = snapshot(site);
  if (!snap.has_value()) return kNever;
  return now - snap->measured_at;
}

int MonitoringService::catalog_cpus(SiteId site) const {
  return grid_.site(site).config().cpus;
}

}  // namespace sphinx::monitor
