#include "ctrl/lease.hpp"

#include "common/contracts.hpp"

namespace sphinx::ctrl {
namespace {

constexpr const char* kTable = "lease";

/// Column positions of the lease table, in schema order.
enum LeaseCol : std::size_t { kShard, kOwner, kEpoch, kExpiresAt, kLive };

}  // namespace

LeaseTable::LeaseTable() : db_(std::make_unique<db::Database>()) {
  table_ = &db_->create_table(
      kTable, db::Schema{db::indexed("shard", db::ValueType::kText),
                         {"owner", db::ValueType::kText},
                         {"epoch", db::ValueType::kInt},
                         {"expires_at", db::ValueType::kReal},
                         {"live", db::ValueType::kBool}});
}

Lease LeaseTable::from_row(const db::Row& row) {
  Lease lease;
  lease.shard = row.cells[kShard].as_text();
  lease.owner = row.cells[kOwner].as_text();
  lease.epoch = static_cast<std::uint64_t>(row.cells[kEpoch].as_int());
  lease.expires_at = row.cells[kExpiresAt].as_real();
  lease.live = row.cells[kLive].as_bool();
  return lease;
}

std::uint64_t LeaseTable::grant(const std::string& shard,
                                const std::string& owner, SimTime now,
                                Duration ttl) {
  SPHINX_PRECONDITION(ttl > 0, "lease ttl must be positive");
  SPHINX_PRECONDITION(
      table_->find_first(kShard, db::Value(shard)) == nullptr,
      "shard already holds a lease; use transfer() to rebind it");
  table_->insert({db::Value(shard), db::Value(owner),
                  db::Value(std::int64_t{1}), db::Value(now + ttl),
                  db::Value(true)});
  return 1;
}

RenewOutcome LeaseTable::renew(const std::string& shard,
                               const std::string& owner, std::uint64_t epoch,
                               SimTime now, Duration ttl) {
  const db::Row* row = table_->find_first(kShard, db::Value(shard));
  if (row == nullptr) return RenewOutcome::kUnknownShard;
  const Lease lease = from_row(*row);
  if (!lease.live || lease.owner != owner || lease.epoch != epoch) {
    return RenewOutcome::kFenced;
  }
  table_->update(row->id, kExpiresAt, db::Value(now + ttl));
  return RenewOutcome::kRenewed;
}

std::vector<Lease> LeaseTable::expired(SimTime now) const {
  std::vector<Lease> out;
  table_->for_each([&](const db::Row& row) {
    const Lease lease = from_row(row);
    if (lease.live && lease.expires_at <= now) out.push_back(lease);
  });
  return out;
}

std::vector<Lease> LeaseTable::dead() const {
  std::vector<Lease> out;
  table_->for_each([&](const db::Row& row) {
    const Lease lease = from_row(row);
    if (!lease.live) out.push_back(lease);
  });
  return out;
}

void LeaseTable::mark_expired(const std::string& shard) {
  const db::Row* row = table_->find_first(kShard, db::Value(shard));
  SPHINX_PRECONDITION(row != nullptr, "expiring a lease that was never granted");
  table_->update(row->id, kLive, db::Value(false));
}

std::uint64_t LeaseTable::transfer(const std::string& shard,
                                   const std::string& new_owner, SimTime now,
                                   Duration ttl) {
  SPHINX_PRECONDITION(ttl > 0, "lease ttl must be positive");
  const db::Row* row = table_->find_first(kShard, db::Value(shard));
  SPHINX_PRECONDITION(row != nullptr,
                      "transferring a lease that was never granted");
  const auto epoch =
      static_cast<std::uint64_t>(row->cells[kEpoch].as_int()) + 1;
  const db::RowId id = row->id;
  table_->update(id, kOwner, db::Value(new_owner));
  table_->update(id, kEpoch, db::Value(static_cast<std::int64_t>(epoch)));
  table_->update(id, kExpiresAt, db::Value(now + ttl));
  table_->update(id, kLive, db::Value(true));
  return epoch;
}

std::optional<Lease> LeaseTable::lookup(const std::string& shard) const {
  const db::Row* row = table_->find_first(kShard, db::Value(shard));
  if (row == nullptr) return std::nullopt;
  return from_row(*row);
}

std::optional<std::string> LeaseTable::first_live_owner(
    SimTime now, const std::string& exclude) const {
  std::optional<std::string> found;
  table_->for_each([&](const db::Row& row) {
    if (found.has_value()) return;
    const Lease lease = from_row(row);
    if (lease.live && lease.expires_at > now && lease.owner != exclude) {
      found = lease.owner;
    }
  });
  return found;
}

std::vector<Lease> LeaseTable::leases() const {
  std::vector<Lease> out;
  out.reserve(table_->size());
  table_->for_each([&](const db::Row& row) { out.push_back(from_row(row)); });
  return out;
}

StatusOrError LeaseTable::recover_from(const db::Journal& journal) {
  SPHINX_PRECONDITION(table_->size() == 0,
                      "recover_from() requires a never-mutated table");
  // Full replay needs an empty store, and the crashed journal's first
  // record recreates the lease table anyway: replay into a fresh
  // database and swap it in wholesale.
  auto replayed = std::make_unique<db::Database>();
  if (auto status = replayed->recover(journal); !status.ok()) return status;
  // The fresh table this instance built holds the declared schema.
  const std::vector<db::Column>& declared = table_->schema().columns();
  if (!replayed->has_table(kTable) ||
      replayed->table(kTable).schema().columns() != declared) {
    return make_error("recover_schema",
                      "journal holds no lease table matching its declared "
                      "schema");
  }
  table_ = &replayed->table(kTable);
  db_ = std::move(replayed);
  return {};
}

}  // namespace sphinx::ctrl
