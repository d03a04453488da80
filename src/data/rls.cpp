#include "data/rls.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "sim/engine.hpp"

namespace sphinx::data {

void ReplicaLocationService::enable_soft_state(sim::Engine& engine,
                                               Duration propagation_delay) {
  SPHINX_ASSERT(propagation_delay >= 0, "propagation delay must be >= 0");
  engine_ = &engine;
  propagation_delay_ = propagation_delay;
}

void ReplicaLocationService::register_replica(const Lfn& lfn, SiteId site,
                                              double size_bytes) {
  SPHINX_ASSERT(site.valid(), "replica needs a valid site");
  SPHINX_ASSERT(size_bytes >= 0, "replica size must be non-negative");
  Entry& entry = entries_.try_emplace(lfn).first->second;
  // The LRC first, at once...
  const auto known =
      std::find_if(entry.registered.begin(), entry.registered.end(),
                   [site](const Replica& r) { return r.site == site; });
  if (known != entry.registered.end()) {
    known->size_bytes = size_bytes;
  } else {
    entry.registered.push_back(Replica{site, size_bytes});
  }
  // ...then the index, after the propagation delay in soft-state mode.
  if (engine_ != nullptr && propagation_delay_ > 0) {
    engine_->schedule_in(propagation_delay_, "rls:propagate",
                         [indexed = &entry.indexed, site] {
                           indexed->insert(site);
                         });
    return;
  }
  entry.indexed.insert(site);
}

const ReplicaLocationService::Entry* ReplicaLocationService::find(
    std::string_view lfn) const {
  const auto it = entries_.find(lfn);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<Replica> ReplicaLocationService::answer(const Entry* entry) const {
  std::vector<Replica> out;
  if (entry == nullptr) return out;
  out.reserve(entry->indexed.size());
  // The answer keeps the index's iteration order, which the same inserts
  // into the same set type reproduce run after run; plans depend on it.
  for (const SiteId site : entry->indexed) {  // sphinx-lint-allow(ordered-escape): the answer order the goldens pin
    // A site reaches the index only after its LRC registered the file.
    out.push_back(*std::find_if(
        entry->registered.begin(), entry->registered.end(),
        [site](const Replica& r) { return r.site == site; }));
  }
  return out;
}

std::vector<Replica> ReplicaLocationService::locate(
    std::string_view lfn) const {
  ++queries_;
  return answer(find(lfn));
}

std::vector<std::vector<Replica>> ReplicaLocationService::locate_bulk(
    std::span<const std::string_view> lfns) const {
  ++queries_;  // a clubbed call is one query no matter how many names
  std::vector<std::vector<Replica>> out;
  out.reserve(lfns.size());
  for (const std::string_view lfn : lfns) out.push_back(answer(find(lfn)));
  return out;
}

}  // namespace sphinx::data
