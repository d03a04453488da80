#pragma once
/// \file grid.hpp
/// The grid: a registry of sites plus their failure/background drivers.
///
/// This is the "Grid3" of the reproduction -- the shared physical fabric
/// that every SPHINX server instance competes for.  It owns the sites and
/// their dynamics; schedulers only ever hold SiteIds and talk to sites
/// through the submission layer and the monitoring system.

#include <memory>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "grid/failure.hpp"
#include "grid/site.hpp"
#include "sim/engine.hpp"

namespace sphinx::grid {

/// Everything needed to instantiate one site.
struct SiteSpec {
  SiteConfig site;
  FailureConfig failure;
  BackgroundLoadConfig background;
};

class Grid {
 public:
  explicit Grid(sim::Engine& engine, SeedTree seeds);

  Grid(const Grid&) = delete;
  Grid& operator=(const Grid&) = delete;

  /// Adds a site and its drivers.  Drivers start when start() is called.
  SiteId add_site(const SiteSpec& spec);

  /// Starts failure models and background load for all sites.
  void start();

  /// Attaches a flight recorder to every site's failure model (current
  /// and future).  Observation only.
  void set_recorder(obs::Recorder* recorder);

  [[nodiscard]] Site& site(SiteId id);
  [[nodiscard]] const Site& site(SiteId id) const;
  /// Whether `id` names one of this grid's sites.
  [[nodiscard]] bool has_site(SiteId id) const noexcept {
    return id.valid() && id.value() <= sites_.size();
  }
  /// Lookup by name; nullptr when absent.
  [[nodiscard]] Site* find_site(const std::string& name) noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return sites_.size(); }
  /// All site ids in creation order (the static "site catalog").
  [[nodiscard]] const std::vector<SiteId>& site_ids() const noexcept {
    return ids_;
  }
  [[nodiscard]] int total_cpus() const noexcept;

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }

 private:
  struct Slot {
    std::unique_ptr<Site> site;
    std::unique_ptr<FailureModel> failure;
    std::unique_ptr<BackgroundLoad> background;
  };

  sim::Engine& engine_;
  SeedTree seeds_;
  IdGenerator<SiteId> site_ids_gen_;
  std::vector<Slot> sites_;  // index = id - 1
  std::vector<SiteId> ids_;
  bool started_ = false;
  obs::Recorder* recorder_ = nullptr;
};

}  // namespace sphinx::grid
