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
///
/// Both levels live in one table keyed by the logical name, so a name is
/// hashed once per registration or lookup: its entry holds what the
/// sites' LRCs registered and which of those sites the index shows.

#include <span>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/hash.hpp"
#include "common/time.hpp"
#include "data/lfn.hpp"

namespace sphinx::sim {
class Engine;
}

namespace sphinx::data {

/// The full service: the RLI index over the sites' LRCs.
///
/// By default index updates are immediate.  In *soft-state* mode (the
/// Giggle design the paper cites: LRCs push periodic state summaries to
/// the index) registrations reach the LRC at once but become visible to
/// index queries only after the propagation delay -- queries in that
/// window miss the new replica, exactly like a freshly produced file on
/// the real RLS.  A size update of a replica the index already shows is
/// visible at once: it is read from the LRC.
class ReplicaLocationService {
 public:
  ReplicaLocationService() = default;
  // Pending soft-state propagations point into the table.
  ReplicaLocationService(const ReplicaLocationService&) = delete;
  ReplicaLocationService& operator=(const ReplicaLocationService&) = delete;
  ReplicaLocationService(ReplicaLocationService&&) = default;

  /// Enables soft-state index propagation.  The engine must outlive the
  /// service.
  void enable_soft_state(sim::Engine& engine, Duration propagation_delay);

  /// Registers a replica of `lfn` at `site` (or re-registers it, updating
  /// its size) and updates the index.  A replica is never unregistered:
  /// the grid only ever adds files.
  void register_replica(const Lfn& lfn, SiteId site, double size_bytes);

  /// All replicas of one logical file the index shows, each with the size
  /// its site's LRC holds.
  [[nodiscard]] std::vector<Replica> locate(std::string_view lfn) const;

  /// Bulk ("clubbed") lookup: one call, many logical names, viewed where
  /// the caller keeps them.  The result vector is parallel to `lfns`;
  /// missing files yield empty entries.
  [[nodiscard]] std::vector<std::vector<Replica>> locate_bulk(
      std::span<const std::string_view> lfns) const;

  /// Number of RLS queries answered (single and bulk both count once) --
  /// lets tests verify that clubbing reduces call volume.
  [[nodiscard]] std::size_t queries() const noexcept { return queries_; }  // sphinx-lint-allow(test-only): tests check that a clubbed lookup is one query

 private:
  /// One logical file.
  struct Entry {
    /// The LRCs' replicas, in first-registration order.
    std::vector<Replica> registered;
    /// The sites the index shows, a subset of `registered`'s.  An
    /// unordered set, as the index has always been: lookups answer in its
    /// iteration order, which select_replica's first-of-equals rule makes
    /// part of every plan.
    std::unordered_set<SiteId> indexed;
  };

  [[nodiscard]] std::vector<Replica> answer(const Entry* entry) const;
  [[nodiscard]] const Entry* find(std::string_view lfn) const;

  /// Never iterated, and an entry is never erased, so its address is
  /// stable for a pending propagation.
  std::unordered_map<Lfn, Entry, StringHash, std::equal_to<>> entries_;
  mutable std::size_t queries_ = 0;
  sim::Engine* engine_ = nullptr;  ///< non-null in soft-state mode
  Duration propagation_delay_ = 0.0;
};

}  // namespace sphinx::data
