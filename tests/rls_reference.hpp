#pragma once
/// \file rls_reference.hpp
/// The replica location service as it was before its one table, kept as
/// the tests' reference: a Local Replica Catalog per site (logical name
/// -> size), and a Replica Location Index (logical name -> the sites
/// whose LRC holds it) that soft-state mode updates only after the
/// propagation delay.  A lookup goes index-first, then reads each
/// indexed site's LRC, so it hashes the name once for the index and
/// again per replica.  It is a copy of that code, changed only to answer
/// data::Replica, which no longer carries the name.  Driven through one
/// seeded schedule next to data::ReplicaLocationService, every answer's
/// sites, sizes and order, and the query count, must match.

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/error.hpp"
#include "common/time.hpp"
#include "data/lfn.hpp"
#include "sim/engine.hpp"

namespace sphinx::rls_reference {

using data::Lfn;
using data::Replica;

/// Local Replica Catalog: one site's logical -> physical mapping.
class LocalReplicaCatalog {
 public:
  explicit LocalReplicaCatalog(SiteId site) : site_(site) {}

  /// Registers (or re-registers, updating the size) a local replica.
  void add(const Lfn& lfn, double size_bytes) {
    SPHINX_ASSERT(size_bytes >= 0, "replica size must be non-negative");
    files_[lfn] = size_bytes;
  }
  [[nodiscard]] std::optional<double> size_of(const Lfn& lfn) const noexcept {
    const auto it = files_.find(lfn);
    if (it == files_.end()) return std::nullopt;
    return it->second;
  }

 private:
  SiteId site_;
  std::unordered_map<Lfn, double> files_;  // lfn -> bytes
};

/// The full service: RLI index over per-site LRCs.
class ReplicaLocationService {
 public:
  void enable_soft_state(sim::Engine& engine, Duration propagation_delay) {
    SPHINX_ASSERT(propagation_delay >= 0, "propagation delay must be >= 0");
    engine_ = &engine;
    propagation_delay_ = propagation_delay;
  }

  LocalReplicaCatalog& lrc(SiteId site) {
    return lrcs_.try_emplace(site, site).first->second;
  }

  void register_replica(const Lfn& lfn, SiteId site, double size_bytes) {
    SPHINX_ASSERT(site.valid(), "replica needs a valid site");
    lrc(site).add(lfn, size_bytes);
    if (engine_ != nullptr && propagation_delay_ > 0) {
      engine_->schedule_in(propagation_delay_, "rls:propagate",
                           [this, lfn, site] { index_[lfn].insert(site); });
      return;
    }
    index_[lfn].insert(site);
  }

  [[nodiscard]] std::vector<Replica> locate(const Lfn& lfn) const {
    ++queries_;
    return locate_uncounted(lfn);
  }

  [[nodiscard]] std::vector<std::vector<Replica>> locate_bulk(
      std::span<const std::string_view> lfns) const {
    ++queries_;  // a clubbed call is one query no matter how many names
    std::vector<std::vector<Replica>> out;
    out.reserve(lfns.size());
    for (const std::string_view lfn : lfns) {
      out.push_back(locate_uncounted(Lfn(lfn)));
    }
    return out;
  }

  [[nodiscard]] std::size_t queries() const noexcept { return queries_; }

 private:
  [[nodiscard]] std::vector<Replica> locate_uncounted(const Lfn& lfn) const {
    std::vector<Replica> out;
    const auto idx = index_.find(lfn);
    if (idx == index_.end()) return out;
    for (const SiteId site : idx->second) {
      const auto lrc_it = lrcs_.find(site);
      if (lrc_it == lrcs_.end()) continue;
      const auto size = lrc_it->second.size_of(lfn);
      if (size.has_value()) out.push_back(Replica{site, *size});
    }
    return out;
  }

  std::unordered_map<SiteId, LocalReplicaCatalog> lrcs_;
  // RLI: lfn -> set of sites whose LRC has it.
  std::unordered_map<Lfn, std::unordered_set<SiteId>> index_;
  mutable std::size_t queries_ = 0;
  sim::Engine* engine_ = nullptr;  ///< non-null in soft-state mode
  Duration propagation_delay_ = 0.0;
};

}  // namespace sphinx::rls_reference
