#pragma once
/// \file database.hpp
/// The table store: typed tables, their journal, and the durable state
/// that survives a crash.
///
/// What survives is one DurableState -- the last checkpoint image, the
/// journal sequence it reflects, and the journal -- and only this class
/// writes it: checkpoint() publishes an image and truncates the journal
/// prefix it covers, and recover() is the one way back.  The schema
/// lives in the code that declares the tables and in each image, never
/// in the journal.
///
/// Images are incremental in their work, not in their bytes.  Each row
/// remembers where its line sits in the last image checkpoint() wrote.
/// Any write to a row -- an insert, a set (journaled even when the value
/// is unchanged) or a replayed insert or update -- makes it forget; the
/// next image copies every remembered line and formats only the rest.  A
/// recovered row remembers nothing, so the first image after recovery
/// formats every row: remembering a restored line would mean formatting
/// its row to check that the image holds it in the store's own form,
/// which costs what the first image saves.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "db/journal.hpp"
#include "db/table.hpp"

namespace sphinx::db {

/// What survives a crash of a database: its last checkpoint image and
/// the journal.  The image reflects every record below `image_seq`, so
/// recovery replays the records from `image_seq` on; the journal may
/// still hold older ones when the crash fell between an image's
/// publication and the truncation that follows it.  Copying the state
/// copies the image's pointer, not its text.
struct DurableState {
  /// The last image, null before the first checkpoint.
  std::shared_ptr<const std::string> image;
  /// The journal sequence the image reflects; 0 without an image.
  std::uint64_t image_seq = 0;
  Journal journal;
};

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
    auto table =
        std::make_unique<Table<Row>>(std::move(name), &durable_.journal);
    Table<Row>& ref = *table;
    add(std::move(table));
    return ref;
  }

  /// The journal of all mutations since the last checkpoint (or since
  /// construction).
  [[nodiscard]] const Journal& journal() const noexcept {
    return durable_.journal;
  }

  /// Everything a crash leaves behind: what recover() takes.
  [[nodiscard]] const DurableState& durable() const noexcept {
    return durable_;
  }

  /// The checkpoint rule: true once the journal holds at least one record
  /// and at least as many records as the last image holds rows (zero
  /// before the first image).  It reads only what recovery carries over,
  /// so a recovered database answers exactly as the crashed one would
  /// have.  Replaying the retained journal then never costs more than
  /// restoring the image, and each image is paid for by the records
  /// journaled since the one before.
  [[nodiscard]] bool checkpoint_due() const noexcept;

  /// Writes an image of the whole store and publishes it, with the
  /// journal's next_seq() and its row count, as the durable state's
  /// image; then runs `mid_hook`, if given, and truncates the journal
  /// prefix the image covers unless the hook returned true.  The image is
  /// deterministic and byte-stable: table schemas (creation order, with
  /// their index declarations), rows (id order) and each table's
  /// id-allocation cursor -- equal tables yield identical bytes whatever
  /// mutation history produced them.  The lines of rows unwritten since
  /// the previous image are copied from it.  A hook returning true is a
  /// crash between publication and truncation: the journal keeps its
  /// prefix, and recovery skips it.
  void checkpoint(const std::function<bool()>& mid_hook = {});

  /// Rebuilds this database, whose declared tables must be fresh
  /// ("recover_nonempty"), from a crashed one's durable state: restores
  /// the image, if there is one, replays the journal records from
  /// `image_seq` on, and adopts the image and the journal, truncated
  /// before `image_seq`, as its own -- byte-identical to the crashed
  /// journal's retained records, so a recovered store stays recoverable.
  /// `state` is left as it was.  Never throws on bad input; refuses an
  /// image no store could have written, or an `image_seq` without an
  /// image ("restore_parse": a bad number, a row out of id order or at or
  /// past its table's allocation cursor, a cell its column cannot hold),
  /// an image whose tables differ from the declared ones
  /// ("recover_schema": a table missing or undeclared, a column renamed,
  /// retyped, moved or re-indexed), a journal that starts after
  /// `image_seq` or ends before it ("recover_suffix"), and a record the
  /// store would not have written ("recover_replay": an undeclared table,
  /// a missing row, an insert whose id is not the one its table allocates
  /// next, a cell its column cannot hold).  Sweeps nothing: the caller
  /// runs check_invariants() on the result.
  [[nodiscard]] StatusOrError recover(const DurableState& state);

  /// Sweep across the store: every table passes its own
  /// check_invariants(), every journal entry references a table that
  /// exists (tables are never dropped, so this holds across truncation
  /// and recovery), and every line a row remembers is its formatting in
  /// the last image.  Throws ContractViolation on corruption; no-op when
  /// contracts are compiled out.
  void check_invariants() const;

 private:
  friend struct DatabaseInspector;  // test-only fault injection
  void add(std::unique_ptr<TableBase> table);
  /// The position of table `name` in tables_, or tables_.size().
  [[nodiscard]] std::size_t position(std::string_view name) const noexcept;
  /// Whether every table is as create_table() left it.
  [[nodiscard]] bool fresh() const noexcept;
  /// Rows across every table: the number of row lines an image holds.
  [[nodiscard]] std::size_t rows() const noexcept;
  /// recover()'s first step: fills the fresh declared tables from an
  /// image checkpoint() wrote.  Nothing is journaled.
  [[nodiscard]] StatusOrError restore(std::string_view image);
  /// recover()'s second step: applies one journal record to its declared
  /// table.
  [[nodiscard]] StatusOrError replay(const JournalEntry& entry);

  std::vector<std::unique_ptr<TableBase>> tables_;  ///< in creation order
  /// The image, its sequence and the journal.  The tables append to the
  /// journal; only checkpoint() and recover() write the image and its
  /// sequence, so the image always pairs with the journal it anchors.
  DurableState durable_;  // sphinx-lint: derived(checkpoint, recover)
  /// Rows the image holds (0 without one): the store's row count when
  /// checkpoint() published it, or when recover() restored it.
  std::size_t image_rows_ = 0;  // sphinx-lint: derived(checkpoint, recover)
};

}  // namespace sphinx::db
