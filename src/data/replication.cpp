#include "data/replication.hpp"

namespace sphinx::data {

std::optional<Replica> select_replica(const std::vector<Replica>& replicas,
                                      SiteId destination,
                                      const TransferService& transfers) {
  std::optional<Replica> best;
  Duration best_cost = 0.0;
  for (const Replica& r : replicas) {
    const Duration cost =
        transfers.estimate(r.site, destination, r.size_bytes);
    if (!best.has_value() || cost < best_cost) {
      best = r;
      best_cost = cost;
    }
  }
  return best;
}

}  // namespace sphinx::data
