#include "ctrl/lease.hpp"

#include "common/contracts.hpp"

namespace sphinx::ctrl {

LeaseTable::LeaseTable() : table_(db_.create_table<Lease>("lease")) {}

std::uint64_t LeaseTable::grant(const std::string& shard,
                                const std::string& owner, SimTime now,
                                Duration ttl) {
  SPHINX_PRECONDITION(ttl > 0, "lease ttl must be positive");
  SPHINX_PRECONDITION(
      table_.first<&Lease::shard>(shard) == db::kInvalidRow,
      "shard already holds a lease; use transfer() to rebind it");
  table_.insert({shard, owner, 1, now + ttl, true});
  return 1;
}

RenewOutcome LeaseTable::renew(const std::string& shard,
                               const std::string& owner, std::uint64_t epoch,
                               SimTime now, Duration ttl) {
  const db::RowId id = table_.first<&Lease::shard>(shard);
  const Lease* lease = table_.find(id);
  if (lease == nullptr) return RenewOutcome::kUnknownShard;
  if (!lease->live || lease->owner != owner || lease->epoch != epoch) {
    return RenewOutcome::kFenced;
  }
  table_.set<&Lease::expires_at>(id, now + ttl);
  return RenewOutcome::kRenewed;
}

std::vector<Lease> LeaseTable::expired(SimTime now) const {
  std::vector<Lease> out;
  table_.for_each([&](db::RowId, const Lease& lease) {
    if (lease.live && lease.expires_at <= now) out.push_back(lease);
  });
  return out;
}

std::vector<Lease> LeaseTable::dead() const {
  std::vector<Lease> out;
  table_.for_each([&](db::RowId, const Lease& lease) {
    if (!lease.live) out.push_back(lease);
  });
  return out;
}

void LeaseTable::mark_expired(const std::string& shard) {
  const db::RowId id = table_.first<&Lease::shard>(shard);
  SPHINX_PRECONDITION(id != db::kInvalidRow,
                      "expiring a lease that was never granted");
  table_.set<&Lease::live>(id, false);
}

std::uint64_t LeaseTable::transfer(const std::string& shard,
                                   const std::string& new_owner, SimTime now,
                                   Duration ttl) {
  SPHINX_PRECONDITION(ttl > 0, "lease ttl must be positive");
  const db::RowId id = table_.first<&Lease::shard>(shard);
  SPHINX_PRECONDITION(id != db::kInvalidRow,
                      "transferring a lease that was never granted");
  const std::uint64_t epoch = table_.find(id)->epoch + 1;
  table_.set<&Lease::owner>(id, new_owner);
  table_.set<&Lease::epoch>(id, epoch);
  table_.set<&Lease::expires_at>(id, now + ttl);
  table_.set<&Lease::live>(id, true);
  return epoch;
}

std::optional<std::string> LeaseTable::first_live_owner(
    SimTime now, const std::string& exclude) const {
  std::optional<std::string> found;
  table_.for_each([&](db::RowId, const Lease& lease) {
    if (!found.has_value() && lease.live && lease.expires_at > now &&
        lease.owner != exclude) {
      found = lease.owner;
    }
  });
  return found;
}

std::vector<Lease> LeaseTable::leases() const {
  std::vector<Lease> out;
  out.reserve(table_.size());
  table_.for_each(
      [&out](db::RowId, const Lease& lease) { out.push_back(lease); });
  return out;
}

StatusOrError LeaseTable::recover_from(const db::Journal& journal) {
  SPHINX_PRECONDITION(table_.empty(),
                      "recover_from() requires a never-mutated table");
  return db_.recover(journal);
}

}  // namespace sphinx::ctrl
