#pragma once
/// \file lease.hpp
/// The heartbeat-lease table: which scheduler owns which shard.
///
/// Ownership is a lease, not an assignment: the owner must renew within
/// the TTL or the coordinator declares the shard dead and a surviving
/// peer adopts it.  The leases are rows of an unjournaled db::Table: a
/// lookup by shard goes through its index, and the invariant sweep
/// checks them like the warehouse's tables.
///
/// Epochs fence stale owners.  Each transfer increments the shard's
/// epoch; a renewal carrying an older epoch (an owner that was paused,
/// declared dead, and came back) is rejected as kFenced so two
/// schedulers can never both believe they own a shard.

#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/time.hpp"
#include "db/table.hpp"

namespace sphinx::ctrl {

/// One shard's lease: a row of the lease table.
struct Lease {
  std::string shard;
  std::string owner;
  std::uint64_t epoch = 0;
  SimTime expires_at = 0.0;  // sphinx-lint-allow(test-only): only the lease pair reads it, for expiry and adoption
  bool live = true;  ///< false once the coordinator declared it expired

  /// The lease table's columns, in persisted order.
  static constexpr auto columns() {
    return std::tuple{db::indexed("shard", &Lease::shard),
                      db::column("owner", &Lease::owner),
                      db::column("epoch", &Lease::epoch),
                      db::column("expires_at", &Lease::expires_at),
                      db::column("live", &Lease::live)};
  }
};

/// Outcome of a renewal attempt.
enum class RenewOutcome {
  kRenewed,       ///< deadline extended
  kFenced,        ///< stale epoch or already-expired lease; owner must stop
  kUnknownShard,  ///< no lease was ever granted for this shard
};

/// The lease table itself.  All reads iterate in row (= grant) order, so
/// decisions derived from the table -- expiry sweeps, adopter choice --
/// are a function of table state alone, never of hash-map iteration.
class LeaseTable {
 public:

  /// Grants the initial lease on `shard` (epoch 1).  The shard must not
  /// already hold a lease -- regrant is transfer()'s job.
  std::uint64_t grant(const std::string& shard, const std::string& owner,
                      SimTime now, Duration ttl);

  /// Extends `shard`'s deadline to now + ttl iff (owner, epoch) match the
  /// live lease.  A mismatch fences the caller (see file comment).
  RenewOutcome renew(const std::string& shard, const std::string& owner,
                     std::uint64_t epoch, SimTime now, Duration ttl);

  /// Live leases whose deadline has passed, in grant order.
  [[nodiscard]] std::vector<Lease> expired(SimTime now) const;

  /// Leases already declared dead (mark_expired()) and not yet
  /// transferred, in grant order -- the standing adoption work-list: a
  /// shard whose adoption failed stays here until a sweep succeeds.
  [[nodiscard]] std::vector<Lease> dead() const;

  /// Marks a lease dead, so one missed deadline is declared
  /// exactly once no matter how often the monitor sweeps.
  void mark_expired(const std::string& shard);

  /// Rebinds `shard` to `new_owner` with epoch + 1 and a fresh deadline.
  /// Returns the new epoch.  Valid on live and expired leases (adoption
  /// transfers an expired one).
  std::uint64_t transfer(const std::string& shard, const std::string& new_owner,
                         SimTime now, Duration ttl);

  /// The owner of the first live, unexpired lease in grant order whose
  /// owner differs from `exclude` -- the adoption candidate.  An owner
  /// is only believed alive while some lease of its own is current.
  [[nodiscard]] std::optional<std::string> first_live_owner(
      SimTime now, const std::string& exclude) const;

  /// All leases in grant order.
  [[nodiscard]] std::vector<Lease> leases() const;

  void check_invariants() const { table_.check_invariants(); }

 private:
  db::Table<Lease> table_{"lease"};
};

}  // namespace sphinx::ctrl
