#pragma once
/// \file rls.hpp
/// Replica Location Service (Giggle-style LRC + RLI hierarchy).
///
/// Following the Globus RLS design the paper uses (section 3.4): each
/// site runs a Local Replica Catalog (LRC) mapping logical names to its
/// own physical files; a Replica Location Index (RLI) knows, for every
/// logical name, *which* LRCs hold replicas.  Queries go index-first,
/// then fan out to the relevant LRCs.  SPHINX "clubs" its lookups into
/// single bulk calls, which the API supports directly.

#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/time.hpp"
#include "data/lfn.hpp"

namespace sphinx::sim {
class Engine;
}

namespace sphinx::data {

/// Local Replica Catalog: one site's logical -> physical mapping.
class LocalReplicaCatalog {
 public:
  explicit LocalReplicaCatalog(SiteId site) : site_(site) {}

  [[nodiscard]] SiteId site() const noexcept { return site_; }

  /// Registers (or re-registers, updating the size) a local replica.
  void add(const Lfn& lfn, double size_bytes);
  [[nodiscard]] std::optional<double> size_of(const Lfn& lfn) const noexcept;  // sphinx-lint-allow(test-only): the RLS in this pair reads replica sizes through it
  [[nodiscard]] std::size_t size() const noexcept { return files_.size(); }

 private:
  SiteId site_;
  std::unordered_map<Lfn, double> files_;  // lfn -> bytes
};

/// The full service: RLI index over per-site LRCs.
///
/// By default index updates are immediate.  In *soft-state* mode (the
/// Giggle design the paper cites: LRCs push periodic state summaries to
/// the index) registrations reach the LRC at once but become visible to
/// index queries only after the propagation delay -- queries in that
/// window miss the new replica, exactly like a freshly produced file on
/// the real RLS.
class ReplicaLocationService {
 public:
  ReplicaLocationService() = default;

  /// Enables soft-state index propagation.  The engine must outlive the
  /// service.
  void enable_soft_state(sim::Engine& engine, Duration propagation_delay);

  /// Creates (idempotently) the LRC for a site.
  LocalReplicaCatalog& lrc(SiteId site);  // sphinx-lint-allow(test-only): tests read a site's LRC ahead of the soft-state index

  /// Registers a replica of `lfn` at `site` and updates the index.  A
  /// replica is never unregistered: the grid only ever adds files.
  void register_replica(const Lfn& lfn, SiteId site, double size_bytes);

  /// All replicas of one logical file.
  [[nodiscard]] std::vector<Replica> locate(const Lfn& lfn) const;

  /// Bulk ("clubbed") lookup: one call, many logical names.  The result
  /// vector is parallel to `lfns`; missing files yield empty entries.
  [[nodiscard]] std::vector<std::vector<Replica>> locate_bulk(
      const std::vector<Lfn>& lfns) const;

  /// Number of RLS queries answered (single and bulk both count once) --
  /// lets tests verify that clubbing reduces call volume.
  [[nodiscard]] std::size_t queries() const noexcept { return queries_; }  // sphinx-lint-allow(test-only): tests check that a clubbed lookup is one query

 private:
  [[nodiscard]] std::vector<Replica> locate_uncounted(const Lfn& lfn) const;

  std::unordered_map<SiteId, LocalReplicaCatalog> lrcs_;
  // RLI: lfn -> set of sites whose LRC has it.
  std::unordered_map<Lfn, std::unordered_set<SiteId>> index_;
  mutable std::size_t queries_ = 0;
  sim::Engine* engine_ = nullptr;  ///< non-null in soft-state mode
  Duration propagation_delay_ = 0.0;
};

}  // namespace sphinx::data
