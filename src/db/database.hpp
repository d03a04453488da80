#pragma once
/// \file database.hpp
/// The table store: named tables + journaling + recovery.

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/journal.hpp"
#include "db/table.hpp"

namespace sphinx::db {

/// A collection of tables sharing one journal.
class Database : private TableObserver {
 public:
  Database();
  ~Database() override;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Creates a table; throws AssertionError if the name already exists.
  Table& create_table(const std::string& name, Schema schema);

  /// Looks up a table; throws AssertionError if absent (table names are
  /// compile-time constants in this codebase).
  [[nodiscard]] Table& table(const std::string& name);
  [[nodiscard]] const Table& table(const std::string& name) const;

  [[nodiscard]] bool has_table(const std::string& name) const noexcept;

  /// The journal of all mutations since construction (or last checkpoint).
  [[nodiscard]] const Journal& journal() const noexcept { return journal_; }

  /// Compacts the journal prefix below `seq` (see
  /// Journal::truncate_before) -- the checkpoint path, where `seq` is
  /// the sequence the published image reflects.
  void truncate_journal(std::uint64_t seq) { journal_.truncate_before(seq); }

  /// Deterministic, byte-stable image of the whole store: table schemas
  /// (creation order, with their index declarations), rows (id order)
  /// and each table's id-allocation cursor.  A pure function of the
  /// store's logical state -- equal tables yield identical bytes no
  /// matter what mutation history produced them.  Round-trips through
  /// restore() using the journal's line-oriented text building blocks.
  [[nodiscard]] std::string snapshot() const;

  /// Rebuilds tables from a snapshot() image into this empty database.
  /// The snapshot is state, not history: nothing is journaled and the
  /// journal is left empty -- the caller pairs the image with the
  /// journal suffix it wants replayed on top (see recover()).  An image
  /// that no store could have written is refused ("restore_parse"): a bad
  /// number, a schema with a repeated column, or a row out of id order,
  /// at or past its table's allocation cursor, or unfit for its schema.
  [[nodiscard]] StatusOrError restore(const std::string& snapshot);

  /// Rebuilds database content by replaying the entries of `journal`
  /// whose sequence number is >= from_seq.  With from_seq == 0 (full
  /// replay) this database must be empty; with from_seq > 0 it replays a
  /// post-checkpoint suffix onto tables a restore() just rebuilt.  On
  /// success the replayed suffix is adopted wholesale as this database's
  /// own journal -- byte-identical to the crashed journal's retained
  /// entries -- so a recovered server remains recoverable.  Each record
  /// is checked before it is applied, and one the store would not have
  /// written is refused ("recover_replay"): a record naming a missing
  /// table or row, a create repeating a table or a column name, an insert
  /// whose id is not the one its table allocates next, or a cell the
  /// schema refuses.  A journal that starts after from_seq, or ends
  /// before it, is refused too ("recover_suffix").
  [[nodiscard]] StatusOrError recover(const Journal& journal,
                                      std::uint64_t from_seq = 0);

  /// Structural sweep across the store: every table passes its own
  /// check_invariants(), the name map and creation order agree, and
  /// every journal entry references a table that exists (tables are
  /// never dropped, so this holds across truncation and recovery).
  /// Throws ContractViolation on corruption; no-op when contracts are
  /// compiled out.
  void check_invariants() const;

 private:
  friend struct DatabaseInspector;  // test-only fault injection
  [[nodiscard]] StatusOrError replay(JournalEntry entry);
  void on_insert(const std::string& table, RowId id,
                 const std::vector<Value>& cells) override;
  void on_update(const std::string& table, RowId id, std::size_t column,
                 const Value& value) override;
  void on_erase(const std::string& table, RowId id) override;

  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
  std::vector<std::string> creation_order_;
  Journal journal_;
  /// Off while recover() and restore() rebuild tables (replay-into-self
  /// would double-log); restored on every exit from them.
  bool journaling_ = true;
};

}  // namespace sphinx::db
