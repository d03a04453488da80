#pragma once
/// \file database.hpp
/// The table store: typed tables + journaling + recovery.
///
/// Recovery has one path: restore() the last checkpoint image, if there
/// is one, then recover() replays the journal records after it onto the
/// declared tables.  The schema lives in the code that declares the
/// tables and in each image, never in the journal.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "db/journal.hpp"
#include "db/table.hpp"

namespace sphinx::db {

/// A collection of tables sharing one journal.  Its owner declares every
/// table up front, in creation order; recovery fills the declared tables
/// and refuses an image whose tables differ from them, or a record for a
/// table they lack.
class Database {
 public:
  Database();
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Declares a table of Row structs.  Nothing is journaled: the code
  /// declares every table, and a checkpoint image carries the schemas.
  /// Throws AssertionError if the name already exists (table names are
  /// compile-time constants in this codebase).
  template <typename Row>
  Table<Row>& create_table(std::string name) {
    auto table = std::make_unique<Table<Row>>(std::move(name), &journal_);
    Table<Row>& ref = *table;
    add(std::move(table));
    return ref;
  }

  /// The journal of all mutations since construction (or last checkpoint).
  [[nodiscard]] const Journal& journal() const noexcept { return journal_; }

  /// Rows across every table: the number of row lines snapshot() writes.
  [[nodiscard]] std::size_t rows() const noexcept;

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

  /// Fills this database's declared, still empty tables from a
  /// snapshot() image.  The snapshot is state, not history: nothing is
  /// journaled and the journal is left empty -- the caller pairs the
  /// image with the journal suffix it wants replayed on top (see
  /// recover()).  An image that no store could have written is refused
  /// ("restore_parse"): a bad number, a row out of id order or at or past
  /// its table's allocation cursor, or a cell its column cannot hold.
  /// One whose tables differ from the declared ones -- a table missing or
  /// undeclared, or its columns renamed, retyped, moved or re-indexed --
  /// is refused with "recover_schema".
  [[nodiscard]] StatusOrError restore(const std::string& snapshot);

  /// Rebuilds database content by replaying the entries of `journal`
  /// whose sequence number is >= from_seq onto the declared tables: with
  /// from_seq == 0 (no image) they must be empty, and with from_seq > 0
  /// they hold what a restore() of the image at from_seq just rebuilt.
  /// On success the replayed suffix is adopted wholesale as this
  /// database's own journal -- byte-identical to the crashed journal's
  /// retained entries -- so a recovered server remains recoverable.  Each
  /// record is checked before it is applied, and one the store would not
  /// have written is refused ("recover_replay"): a record naming an
  /// undeclared table or a missing row, an insert whose id is not the one
  /// its table allocates next, or a cell its column cannot hold.  A
  /// journal that starts after from_seq, or ends before it, is refused too
  /// ("recover_suffix").
  [[nodiscard]] StatusOrError recover(const Journal& journal,
                                      std::uint64_t from_seq = 0);

  /// Structural sweep across the store: every table passes its own
  /// check_invariants(), and every journal entry references a table that
  /// exists (tables are never dropped, so this holds across truncation
  /// and recovery).  Throws ContractViolation on corruption; no-op when
  /// contracts are compiled out.
  void check_invariants() const;

 private:
  friend struct DatabaseInspector;  // test-only fault injection
  void add(std::unique_ptr<TableBase> table);
  /// The position of table `name` in tables_, or tables_.size().
  [[nodiscard]] std::size_t position(std::string_view name) const noexcept;
  /// Applies one journal record to its declared table.
  [[nodiscard]] StatusOrError replay(const JournalEntry& entry);
  /// Whether every table is as create_table() left it.
  [[nodiscard]] bool fresh() const noexcept;

  std::vector<std::unique_ptr<TableBase>> tables_;  ///< in creation order
  Journal journal_;
};

}  // namespace sphinx::db
