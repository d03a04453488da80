#include "grid/grid.hpp"

#include "common/error.hpp"

namespace sphinx::grid {

Grid::Grid(sim::Engine& engine, SeedTree seeds)
    : engine_(engine), seeds_(seeds) {}

SiteId Grid::add_site(const SiteSpec& spec) {
  SPHINX_ASSERT(!started_, "cannot add sites after start()");
  SPHINX_ASSERT(find_site(spec.site.name) == nullptr,
                "duplicate site name: " + spec.site.name);
  const SiteId id = site_ids_gen_.next();
  Slot slot;
  slot.site = std::make_unique<Site>(engine_, id, spec.site,
                                     seeds_.stream("site/" + spec.site.name));
  slot.failure = std::make_unique<FailureModel>(
      engine_, *slot.site, spec.failure,
      seeds_.stream("failure/" + spec.site.name));
  slot.background = std::make_unique<BackgroundLoad>(
      engine_, *slot.site, spec.background,
      seeds_.stream("background/" + spec.site.name));
  slot.failure->set_recorder(recorder_);
  sites_.push_back(std::move(slot));
  ids_.push_back(id);
  return id;
}

void Grid::set_recorder(obs::Recorder* recorder) {
  recorder_ = recorder;
  for (Slot& slot : sites_) slot.failure->set_recorder(recorder);
}

void Grid::start() {
  started_ = true;
  for (Slot& slot : sites_) {
    slot.failure->start();
    slot.background->start();
  }
}

Site& Grid::site(SiteId id) {
  SPHINX_ASSERT(has_site(id),
                "unknown site id " + std::to_string(id.value()));
  return *sites_[id.value() - 1].site;
}

const Site& Grid::site(SiteId id) const {
  SPHINX_ASSERT(has_site(id),
                "unknown site id " + std::to_string(id.value()));
  return *sites_[id.value() - 1].site;
}

Site* Grid::find_site(const std::string& name) noexcept {
  for (Slot& slot : sites_) {
    if (slot.site->name() == name) return slot.site.get();
  }
  return nullptr;
}

int Grid::total_cpus() const noexcept {
  int total = 0;
  for (const Slot& slot : sites_) total += slot.site->config().cpus;
  return total;
}

}  // namespace sphinx::grid
