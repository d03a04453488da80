#pragma once
/// \file table.hpp
/// Schema'd in-memory tables with secondary indexes.
///
/// Tables are the inter-module communication fabric of the SPHINX server:
/// one module writes a row in a new state, the control process reads rows
/// by state and wakes the module responsible for that state (paper
/// section 3.2).  Rows are addressed by a stable RowId so the journal can
/// replay mutations.

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "db/value.hpp"

namespace sphinx::db {

/// Stable identifier of a row within one table.
using RowId = std::uint64_t;
inline constexpr RowId kInvalidRow = 0;

/// Column definition.
struct Column {
  std::string name;
  ValueType type = ValueType::kNull;  ///< kNull means "any type accepted"
  /// Declares a hash index on this column at table creation.  The flag is
  /// part of the schema, so it is journaled with kCreateTable entries and
  /// recovery rebuilds the same indexes automatically.  Only int, text and
  /// bool columns can carry one: index lookup is Value equality, which a
  /// NaN real (possible in a real or untyped column) never satisfies.
  bool indexed = false;

  friend bool operator==(const Column&, const Column&) = default;
};

/// Shorthand for declaring an indexed column in a schema literal.
[[nodiscard]] inline Column indexed(std::string name, ValueType type) {
  return Column{std::move(name), type, true};
}

/// Whether a column of `type` can carry an index (int, text or bool).
[[nodiscard]] bool indexable(ValueType type) noexcept;

/// Ordered list of columns, addressed by position.
class Schema {
 public:
  Schema() = default;
  Schema(std::initializer_list<Column> cols);
  explicit Schema(std::vector<Column> cols);

  [[nodiscard]] std::size_t size() const noexcept { return columns_.size(); }
  [[nodiscard]] const Column& at(std::size_t i) const { return columns_.at(i); }
  [[nodiscard]] const std::vector<Column>& columns() const noexcept {
    return columns_;
  }

  /// Checks that `row` matches arity and column types (null always allowed).
  [[nodiscard]] bool accepts(const std::vector<Value>& row) const noexcept;

  /// Checks one cell against column `i`'s declared type (null always
  /// allowed, ints widen to reals).
  [[nodiscard]] bool accepts_cell(std::size_t i, const Value& v) const noexcept;

  /// Refuses column lists no schema may hold: a repeated name, or an index
  /// on a column type that cannot carry one.  The constructor asserts
  /// this; replay and restore check it first on what they read from text.
  [[nodiscard]] static StatusOrError check(const std::vector<Column>& cols);

 private:
  std::vector<Column> columns_;
};

/// A materialized row: id + cells.
struct Row {
  RowId id = kInvalidRow;
  std::vector<Value> cells;
};

/// Observer invoked on every committed mutation; the journal subscribes.
struct TableObserver {
  virtual ~TableObserver() = default;
  virtual void on_insert(const std::string& table, RowId id,
                         const std::vector<Value>& cells) = 0;
  virtual void on_update(const std::string& table, RowId id,
                         std::size_t column, const Value& value) = 0;
  virtual void on_erase(const std::string& table, RowId id) = 0;
};

/// One table.  Insertions get monotonically increasing RowIds.  Columns
/// are addressed by position, and the only query path is the hash index
/// the schema declares on a column, maintained incrementally and keyed by
/// the cell Value itself.
///
/// Rows live in id-indexed slots: the row with id `base + i` sits in slot
/// i, so a lookup by id is an index.  An erased row leaves its slot empty
/// until the erased prefix of the window is reclaimed, which advances the
/// base; a table that inserts and erases one row at a time (an outbox)
/// therefore holds one slot, not its whole history.
class Table {
 public:
  Table(std::string name, Schema schema);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const Schema& schema() const noexcept { return schema_; }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Inserts a row; returns its id.  Throws AssertionError on schema
  /// mismatch (callers construct rows from typed code, not user input).
  RowId insert(std::vector<Value> cells);

  /// Inserts preserving a specific id (journal replay, snapshot restore).
  /// Ids only move forward: `id` must be at least next_id().
  void insert_with_id(RowId id, std::vector<Value> cells);

  /// The id the next insert() will allocate.  Part of the table's
  /// persistent state: erasing the newest row does not rewind it, so a
  /// checkpoint snapshot must carry it explicitly.
  [[nodiscard]] RowId next_id() const noexcept { return next_id_; }

  /// Restores the allocation cursor from a checkpoint snapshot.  Only
  /// ever moves the cursor forward (row inserts already advanced it to
  /// max(id)+1; the snapshot cursor can sit higher when tail rows were
  /// erased before the snapshot).
  void restore_next_id(RowId next_id);

  /// Updates the cell at `column`.  Returns false if the row does not
  /// exist.  Only an indexed column's index is touched, and only when the
  /// value changes.
  bool update(RowId id, std::size_t column, Value value);

  /// Removes a row.  Returns false if absent.
  bool erase(RowId id);

  /// Row lookup; nullptr if absent.  Pointer invalidated by inserts and
  /// erases.
  [[nodiscard]] const Row* find(RowId id) const;

  /// All row ids whose `column` equals `value`, in id (= insertion)
  /// order.  `column` must be indexed (AssertionError otherwise).  Buckets
  /// are kept id-ordered so query results are a function of table
  /// *state*, never of update history (checkpoint restore rebuilds
  /// buckets from rows alone and must reproduce the live instance's
  /// iteration order exactly).  The reference is invalidated by
  /// mutations.
  [[nodiscard]] const std::vector<RowId>& find_by(std::size_t column,
                                                  const Value& value) const;

  /// First (lowest-id) row whose indexed `column` equals `value`; nullptr
  /// when no row matches.  Pointer invalidated by mutations.
  [[nodiscard]] const Row* find_first(std::size_t column,
                                      const Value& value) const;

  /// Visits every row in insertion order.
  void for_each(const std::function<void(const Row&)>& fn) const;

  void set_observer(TableObserver* observer) noexcept { observer_ = observer; }

  /// Structural sweep: every row matches the schema and sits in its id's
  /// slot, row ids stay below the allocation cursor, and every index
  /// bucket mirrors the rows it claims to cover.  Throws
  /// ContractViolation on corruption; a no-op when contracts are compiled
  /// out.
  void check_invariants() const;

 private:
  friend struct TableInspector;  // test-only fault injection
  using Index = std::unordered_map<Value, std::vector<RowId>, Value::Hash>;

  [[nodiscard]] const Index& index(std::size_t column) const;
  [[nodiscard]] Row* slot(RowId id);
  void reclaim_prefix();
  void index_insert(const Row& row);
  void index_erase(const Row& row);
  void bucket_insert(std::size_t column, const Value& key, RowId id);
  void bucket_erase(std::size_t column, const Value& key, RowId id);

  std::string name_;
  Schema schema_;
  // slots_[i] holds row base_ + i, or is empty (id kInvalidRow) once that
  // row was erased.  Slots before head_ are all empty: the erased prefix,
  // dropped once it reaches half the window so that each slot moves O(1)
  // times.  base_ + slots_.size() <= next_id_.
  std::vector<Row> slots_;
  RowId base_ = 1;
  std::size_t head_ = 0;
  std::size_t live_ = 0;
  RowId next_id_ = 1;
  // One slot per column, filled only for indexed columns.  The buckets
  // are only probed, never walked in an order-sensitive way.
  std::vector<Index> indexes_;
  TableObserver* observer_ = nullptr;
};

}  // namespace sphinx::db
