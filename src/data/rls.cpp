#include "data/rls.hpp"

#include "common/error.hpp"
#include "sim/engine.hpp"

namespace sphinx::data {

void LocalReplicaCatalog::add(const Lfn& lfn, double size_bytes) {
  SPHINX_ASSERT(size_bytes >= 0, "replica size must be non-negative");
  files_[lfn] = size_bytes;
}

std::optional<double> LocalReplicaCatalog::size_of(
    const Lfn& lfn) const noexcept {
  const auto it = files_.find(lfn);
  if (it == files_.end()) return std::nullopt;
  return it->second;
}

LocalReplicaCatalog& ReplicaLocationService::lrc(SiteId site) {
  return lrcs_.try_emplace(site, site).first->second;
}

void ReplicaLocationService::enable_soft_state(sim::Engine& engine,
                                               Duration propagation_delay) {
  SPHINX_ASSERT(propagation_delay >= 0, "propagation delay must be >= 0");
  engine_ = &engine;
  propagation_delay_ = propagation_delay;
}

void ReplicaLocationService::register_replica(const Lfn& lfn, SiteId site,
                                              double size_bytes) {
  SPHINX_ASSERT(site.valid(), "replica needs a valid site");
  lrc(site).add(lfn, size_bytes);
  if (engine_ != nullptr && propagation_delay_ > 0) {
    engine_->schedule_in(propagation_delay_, "rls:propagate",
                         [this, lfn, site] { index_[lfn].insert(site); });
    return;
  }
  index_[lfn].insert(site);
}

std::vector<Replica> ReplicaLocationService::locate_uncounted(
    const Lfn& lfn) const {
  std::vector<Replica> out;
  const auto idx = index_.find(lfn);
  if (idx == index_.end()) return out;
  for (const SiteId site : idx->second) {
    const auto lrc_it = lrcs_.find(site);
    if (lrc_it == lrcs_.end()) continue;
    const auto size = lrc_it->second.size_of(lfn);
    if (size.has_value()) out.push_back(Replica{lfn, site, *size});
  }
  return out;
}

std::vector<Replica> ReplicaLocationService::locate(const Lfn& lfn) const {
  ++queries_;
  return locate_uncounted(lfn);
}

std::vector<std::vector<Replica>> ReplicaLocationService::locate_bulk(
    const std::vector<Lfn>& lfns) const {
  ++queries_;  // a clubbed call is one query no matter how many names
  std::vector<std::vector<Replica>> out;
  out.reserve(lfns.size());
  for (const Lfn& lfn : lfns) out.push_back(locate_uncounted(lfn));
  return out;
}

}  // namespace sphinx::data
