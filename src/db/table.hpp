#pragma once
/// \file table.hpp
/// Typed in-memory tables with secondary indexes.
///
/// Tables are the inter-module communication fabric of the SPHINX server:
/// one module writes a row in a new state, the control process reads rows
/// by state and wakes the module responsible for that state (paper
/// section 3.2).  Rows are addressed by a stable RowId so the journal can
/// replay mutations.
///
/// A Table<Row> holds the row struct itself.  The row type declares its
/// columns once, in persisted order, as a static constexpr `columns()`
/// tuple of column(name, &Row::member) and indexed(name, &Row::member)
/// entries.  That one list gives the column specs images carry, the cell
/// writers for inserts, updates and images, the cell readers for replay
/// and restore, and the hash indexes, each keyed by its member's own
/// type.  Reading a row is a lookup of the stored struct, and
/// a write is one typed column set, set<&Row::member>(id, value).
///
/// Each row's slot also remembers where the row's line sits in the last
/// checkpoint image its database wrote, so the next image copies that
/// line instead of formatting the row again.  Any write forgets it: an
/// insert, a set (even of an unchanged value) and every replayed insert
/// or update.

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/ids.hpp"
#include "db/encoding.hpp"
#include "db/journal.hpp"

namespace sphinx::db {

/// How a member of type T is held in a cell: its persisted CellType, a
/// writer appending the "tag:payload" field, and a reader that refuses
/// (false) any field the writer does not produce for some T -- another
/// tag, a null, an integer outside T's range, a text that names no
/// enumerator.  A member type without a codec does not compile.
template <typename T>
struct CellCodec;

template <std::integral T>
  requires(!std::same_as<T, bool>)
struct CellCodec<T> {
  static constexpr CellType kType = CellType::kInt;
  static void write(std::string& out, T v) {
    append_int(out, static_cast<std::int64_t>(v));
  }
  static bool read(std::string_view field, T& v) noexcept {
    std::int64_t n = 0;
    if (!read_int(field, n) || !std::in_range<T>(n)) return false;
    v = static_cast<T>(n);
    return true;
  }
};

template <typename Tag>
struct CellCodec<StrongId<Tag>> {
  static constexpr CellType kType = CellType::kInt;
  static void write(std::string& out, StrongId<Tag> id) {
    append_int(out, static_cast<std::int64_t>(id.value()));
  }
  static bool read(std::string_view field, StrongId<Tag>& id) noexcept {
    std::int64_t n = 0;
    if (!read_int(field, n) || n < 0) return false;
    id = StrongId<Tag>(static_cast<std::uint64_t>(n));
    return true;
  }
};

template <>
struct CellCodec<double> {
  static constexpr CellType kType = CellType::kReal;
  static void write(std::string& out, double v) { append_real(out, v); }
  static bool read(std::string_view field, double& v) noexcept {
    return read_real(field, v);
  }
};

template <>
struct CellCodec<bool> {
  static constexpr CellType kType = CellType::kBool;
  static void write(std::string& out, bool v) { append_bool(out, v); }
  static bool read(std::string_view field, bool& v) noexcept {
    return read_bool(field, v);
  }
};

template <>
struct CellCodec<std::string> {
  static constexpr CellType kType = CellType::kText;
  static void write(std::string& out, const std::string& v) {
    append_text(out, v);
  }
  static bool read(std::string_view field, std::string& v) {
    return read_text(field, v);
  }
};

/// An enum is held as the text of its enumerator: `to_string(E)` and
/// `bool from_string(std::string_view, E&)`, found next to E.
template <typename E>
  requires std::is_enum_v<E>
struct CellCodec<E> {
  static constexpr CellType kType = CellType::kText;
  static void write(std::string& out, E v) { append_text(out, to_string(v)); }
  static bool read(std::string_view field, E& v) {
    std::string text;
    return read_text(field, text) && from_string(text, v);
  }
};

/// One declared column: its persisted name, the row member it holds and
/// whether it carries a hash index.
template <typename Row, typename T>
struct Field {
  using type = T;
  const char* name;
  T Row::*member;
  bool indexed;
};

template <typename Row, typename T>
constexpr Field<Row, T> column(const char* name, T Row::*member) noexcept {
  return {name, member, false};
}

/// A column that carries a hash index, keyed by the member's type.  A
/// real column cannot carry one: index lookup is equality, which a NaN
/// cell never satisfies.
template <typename Row, typename T>
constexpr Field<Row, T> indexed(const char* name, T Row::*member) noexcept {
  static_assert(!std::is_floating_point_v<T>, "a real column carries no index");
  return {name, member, true};
}

/// What a Database drives in each of its tables, whatever the row type:
/// the declared column specs, the row window, and the recovery edge that
/// reads encoded cells into rows.  Nothing done through the recovery
/// edge is journaled.
class TableBase {
 public:
  virtual ~TableBase() = default;
  TableBase(const TableBase&) = delete;
  TableBase& operator=(const TableBase&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// The id the next insert() will allocate.  Part of the table's
  /// persistent state: erasing the newest row does not rewind it, so a
  /// checkpoint snapshot must carry it explicitly.
  [[nodiscard]] RowId next_id() const noexcept { return next_id_; }

  /// Restores the allocation cursor from a checkpoint snapshot.  Only
  /// ever moves the cursor forward (row inserts already advanced it to
  /// max(id)+1; the snapshot cursor can sit higher when tail rows were
  /// erased before the snapshot).
  void restore_next_id(RowId next_id) {
    SPHINX_PRECONDITION(next_id >= next_id_,
                        "allocation cursor cannot move backwards");
    next_id_ = next_id;
  }

  /// The declared columns, in persisted order.
  [[nodiscard]] virtual const std::vector<Column>& columns() const = 0;

  /// Places row `id` (at least next_id()) read from its encoded cells, or
  /// refuses a row of the wrong width or a cell its column cannot hold.
  [[nodiscard]] virtual StatusOrError read_row(
      RowId id, std::span<const std::string_view> cells) = 0;
  /// Sets one column of row `id` from its encoded cell, or refuses a
  /// missing row or column, or a cell the column cannot hold.
  [[nodiscard]] virtual StatusOrError read_update(RowId id, std::size_t column,
                                                  std::string_view cell) = 0;
  /// Removes row `id`; false if absent.
  virtual bool replay_erase(RowId id) = 0;

  /// Structural sweep: every row sits in its id's slot, row ids stay
  /// below the allocation cursor, and every index bucket mirrors the rows
  /// it claims to cover.  Throws ContractViolation on corruption; a no-op
  /// when contracts are compiled out.
  virtual void check_invariants() const = 0;

  /// Line sweep: every row's remembered line lies in `image`, the last
  /// image the table's database wrote, and is the row's formatting.
  /// Throws and compiles out like check_invariants().
  virtual void check_lines(std::string_view image) const = 0;

 protected:
  TableBase(std::string name, Journal* journal)
      : name_(std::move(name)), journal_(journal) {}

  /// Appends an "R\t<id>\t<cells>\n" image line per row, in id order,
  /// to `out`, the image being written.  A row not written since the last
  /// image, `last`, has its line copied from there; the others are
  /// formatted.  Every row then remembers where its line sits in `out`.
  /// Only the database calls it, with the last image it wrote itself.
  virtual void append_rows(std::string& out, std::string_view last) = 0;
  friend class Database;

  std::string name_;
  Journal* journal_;  ///< null for a table no database journals
  std::size_t live_ = 0;
  RowId next_id_ = 1;
};

/// One table of Row structs.  Insertions get monotonically increasing
/// RowIds, and the only query path is a hash index the row type declares
/// on a column, maintained incrementally.
///
/// Rows live in id-indexed slots: the row with id `base + i` sits in slot
/// i, so a lookup by id is an index.  An erased row leaves its slot empty
/// until the erased prefix of the window is reclaimed, which advances the
/// base; a table that inserts and erases one row at a time (an outbox)
/// therefore holds one slot, not its whole history.
template <typename Row>
class Table final : public TableBase {
  static constexpr auto kFields = Row::columns();
  static constexpr std::size_t kWidth = std::tuple_size_v<decltype(kFields)>;
  using Seq = std::make_index_sequence<kWidth>;

  /// The member type of a Field (as the tuple holds it, const).
  template <typename F>
  using FieldType = typename std::remove_cvref_t<F>::type;
  template <std::size_t I>
  using TypeAt = FieldType<decltype(std::get<I>(kFields))>;

  template <typename M>
  struct MemberOf;
  template <typename T>
  struct MemberOf<T Row::*> {
    using type = T;
  };

  /// The column position of `Member`, or kWidth when it is not declared.
  template <auto Member>
  static constexpr std::size_t column_of() {
    std::size_t found = kWidth;
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      ((found = found == kWidth && is_member<I>(Member) ? I : found), ...);
    }(Seq{});
    return found;
  }
  template <std::size_t I, typename M>
  static constexpr bool is_member(M member) {
    if constexpr (std::is_same_v<M, decltype(std::get<I>(kFields).member)>) {
      return std::get<I>(kFields).member == member;
    } else {
      return false;
    }
  }

  static constexpr bool names_are_distinct() {
    bool distinct = true;
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      const std::string_view names[] = {std::get<I>(kFields).name...};
      for (std::size_t a = 0; a < kWidth; ++a) {
        for (std::size_t b = a + 1; b < kWidth; ++b) {
          distinct = distinct && names[a] != names[b];
        }
      }
    }(Seq{});
    return distinct;
  }

 public:
  /// The type of the column that `Member` names.
  template <auto Member>
  using MemberType = typename MemberOf<decltype(Member)>::type;

  /// A table whose mutations go to `journal`, or to none.
  explicit Table(std::string name, Journal* journal = nullptr)
      : TableBase(std::move(name), journal) {
    static_assert(names_are_distinct(), "a column name is declared twice");
  }

  /// Inserts a row; returns its id.
  RowId insert(Row row) {
    const RowId id = next_id_;
    const Row& stored = place(id, std::move(row));
    if (journal_ != nullptr) {
      journal_->append_insert(name_, id, [&stored](std::string& out) {
        write_cells(out, stored);
      });
    }
    return id;
  }

  /// Sets the column `Member` of row `id`.  Returns false if the row does
  /// not exist.  The write is journaled even when the value is unchanged;
  /// an indexed column's index is touched only when it changes.
  template <auto Member>
  bool set(RowId id, const MemberType<Member>& value) {
    constexpr std::size_t kColumn = column_of<Member>();
    static_assert(kColumn < kWidth, "set() of a member that is no column");
    Slot* slot = find_slot(id);
    if (slot == nullptr) return false;
    assign<kColumn>(*slot, value);
    if (journal_ != nullptr) {
      journal_->append_update(name_, id, kColumn, [slot](std::string& out) {
        out += '\t';
        CellCodec<MemberType<Member>>::write(out, slot->row.*Member);
      });
    }
    return true;
  }

  /// Removes a row.  Returns false if absent.
  bool erase(RowId id) {
    if (!erase_row(id)) return false;
    if (journal_ != nullptr) journal_->append_erase(name_, id);
    return true;
  }

  /// Row lookup; nullptr if absent (kInvalidRow included).  Pointer
  /// invalidated by inserts and erases.
  [[nodiscard]] const Row* find(RowId id) const {
    const Slot* slot = find_slot(id);
    return slot == nullptr ? nullptr : &slot->row;
  }

  /// All row ids whose indexed column `Member` equals `key`, in id (=
  /// insertion) order.  Buckets are kept id-ordered so query results are
  /// a function of table *state*, never of update history (checkpoint
  /// restore rebuilds buckets from rows alone and must reproduce the live
  /// instance's iteration order exactly).  The reference is invalidated
  /// by mutations.
  template <auto Member>
  [[nodiscard]] const std::vector<RowId>& find_by(
      const MemberType<Member>& key) const {
    static const std::vector<RowId> kNone;
    constexpr std::size_t kColumn = column_of<Member>();
    static_assert(kColumn < kWidth && std::get<kColumn>(kFields).indexed,
                  "find_by() on a column without an index");
    const auto& index = std::get<kColumn>(indexes_);
    const auto bucket = index.find(key);
    return bucket == index.end() ? kNone : bucket->second;
  }

  /// The first (lowest) id whose indexed column `Member` equals `key`;
  /// kInvalidRow when no row matches.
  template <auto Member>
  [[nodiscard]] RowId first(const MemberType<Member>& key) const {
    const std::vector<RowId>& ids = find_by<Member>(key);
    return ids.empty() ? kInvalidRow : ids.front();
  }

  /// Visits every row as fn(id, row), in insertion order.
  template <typename Fn>
  void for_each(const Fn& fn) const {
    for (std::size_t i = head_; i < slots_.size(); ++i) {
      if (slots_[i].id != kInvalidRow) fn(slots_[i].id, slots_[i].row);
    }
  }

  [[nodiscard]] const std::vector<Column>& columns() const override {
    static const std::vector<Column> kColumns = [] {
      std::vector<Column> out;
      std::apply(
          [&out](const auto&... field) {
            (out.push_back(Column{field.name,
                                  CellCodec<FieldType<decltype(field)>>::kType,
                                  field.indexed}),
             ...);
          },
          kFields);
      return out;
    }();
    return kColumns;
  }

  [[nodiscard]] StatusOrError read_row(
      RowId id, std::span<const std::string_view> cells) override {
    if (cells.size() != kWidth) {
      return make_error("bad_row", "row of " + std::to_string(cells.size()) +
                                       " cells in table " + name_ + " of " +
                                       std::to_string(kWidth) + " columns");
    }
    Row row{};
    std::size_t bad = kWidth;
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      ((bad = bad == kWidth && !CellCodec<TypeAt<I>>::read(
                                   cells[I], row.*std::get<I>(kFields).member)
                  ? I
                  : bad),
       ...);
    }(Seq{});
    if (bad != kWidth) return refused(bad, cells[bad]);
    place(id, std::move(row));
    return {};
  }

  [[nodiscard]] StatusOrError read_update(RowId id, std::size_t column,
                                          std::string_view cell) override {
    Slot* slot = find_slot(id);
    if (slot == nullptr) {
      return make_error("bad_row", "update of missing row " +
                                       std::to_string(id) + " in table " +
                                       name_);
    }
    if (column >= kWidth) {
      return make_error("bad_row", "update of column " +
                                       std::to_string(column) + " of table " +
                                       name_);
    }
    bool read = false;
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      ((I == column ? (read = read_cell<I>(*slot, cell)) : false), ...);
    }(Seq{});
    if (!read) return refused(column, cell);
    return {};
  }

  bool replay_erase(RowId id) override { return erase_row(id); }

  void check_invariants() const override {
#if SPHINX_CONTRACTS_ENABLED
    SPHINX_INVARIANT(base_ != kInvalidRow && head_ <= slots_.size() &&
                         base_ + slots_.size() <= next_id_,
                     "row window beyond allocation cursor in table " + name_);
    std::size_t live = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].id == kInvalidRow) continue;
      ++live;
      SPHINX_INVARIANT(i >= head_,
                       "live row in the erased prefix of table " + name_);
      SPHINX_INVARIANT(slots_[i].id == base_ + i,
                       "row stored outside its id's slot in table " + name_);
    }
    SPHINX_INVARIANT(live == live_, "live row count drifted in table " + name_);
    [this]<std::size_t... I>(std::index_sequence<I...>) {
      (check_index<I>(), ...);
    }(Seq{});
#endif
  }

  void check_lines(std::string_view image) const override {
#if SPHINX_CONTRACTS_ENABLED
    std::string line;
    for (std::size_t i = head_; i < slots_.size(); ++i) {
      const Slot& slot = slots_[i];
      if (slot.id == kInvalidRow || slot.line_size == 0) continue;
      line.clear();
      append_line(line, slot.id, slot.row);
      SPHINX_INVARIANT(
          slot.line_at <= image.size() &&
              image.substr(slot.line_at, slot.line_size) == line,
          "row " + std::to_string(slot.id) + " of table " + name_ +
              " remembers an image line that is not its formatting");
    }
#else
    static_cast<void>(image);
#endif
  }

 private:
  friend struct TableInspector;  // test-only fault injection

  struct Slot {
    RowId id = kInvalidRow;  ///< kInvalidRow once the row was erased
    /// Where the row's line sits in the last image its database wrote:
    /// an offset and a length, the length 0 once the row is written
    /// (inserted, set or replayed) after that image, or never imaged.
    std::uint32_t line_at = 0;
    std::uint32_t line_size = 0;
    Row row{};
  };

  void append_rows(std::string& out, std::string_view last) override {
    for (std::size_t i = head_; i < slots_.size(); ++i) {
      Slot& slot = slots_[i];
      if (slot.id == kInvalidRow) continue;
      const std::size_t at = out.size();
      if (slot.line_size != 0) {
        out.append(last.data() + slot.line_at, slot.line_size);
      } else {
        append_line(out, slot.id, slot.row);
      }
      // A line past 4 GiB of image is not remembered: formatted again.
      const std::size_t size = out.size() - at;
      const bool fits = at <= std::numeric_limits<std::uint32_t>::max() &&
                        size <= std::numeric_limits<std::uint32_t>::max();
      slot.line_at = fits ? static_cast<std::uint32_t>(at) : 0;
      slot.line_size = fits ? static_cast<std::uint32_t>(size) : 0;
    }
  }

  /// Appends row `id`'s image line, "R\t<id>\t<cells>\n".
  static void append_line(std::string& out, RowId id, const Row& row) {
    out += "R\t";
    append_u64(out, id);
    write_cells(out, row);
    out += '\n';
  }

  template <typename T>
  using Index = std::unordered_map<T, std::vector<RowId>>;
  template <std::size_t I>
  using IndexAt = std::conditional_t<std::get<I>(kFields).indexed,
                                     Index<TypeAt<I>>, std::monostate>;
  template <std::size_t... I>
  static std::tuple<IndexAt<I>...> index_tuple(std::index_sequence<I...>);

  static void write_cells(std::string& out, const Row& row) {
    std::apply(
        [&](const auto&... field) {
          ((out += '\t',
            CellCodec<FieldType<decltype(field)>>::write(out,
                                                        row.*field.member)),
           ...);
        },
        kFields);
  }

  [[nodiscard]] StatusOrError refused(std::size_t column,
                                      std::string_view cell) const {
    return make_error("bad_cell", "column " + columns()[column].name +
                                      " of table " + name_ +
                                      " cannot hold " + std::string(cell));
  }

  [[nodiscard]] const Slot* find_slot(RowId id) const {
    if (id < base_ || id - base_ >= slots_.size()) return nullptr;
    const Slot& slot = slots_[static_cast<std::size_t>(id - base_)];
    return slot.id == kInvalidRow ? nullptr : &slot;
  }
  [[nodiscard]] Slot* find_slot(RowId id) {
    return const_cast<Slot*>(std::as_const(*this).find_slot(id));
  }

  /// Stores row `id`, which must be fresh, and indexes it.
  const Row& place(RowId id, Row row) {
    SPHINX_ASSERT(id >= next_id_ && id != std::numeric_limits<RowId>::max(),
                  "row id " + std::to_string(id) + " is not fresh in table " +
                      name_);
    if (slots_.empty()) base_ = id;  // nothing live: the window restarts here
    // Ids skipped since the last row (erased tail rows, or an image's
    // gaps) stay empty slots.
    slots_.resize(static_cast<std::size_t>(id - base_));
    Slot& slot = slots_.emplace_back(Slot{.id = id, .row = std::move(row)});
    ++live_;
    next_id_ = id + 1;
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      (bucket_insert<I>(slot.row.*std::get<I>(kFields).member, id), ...);
    }(Seq{});
    return slot.row;
  }

  bool erase_row(RowId id) {
    Slot* slot = find_slot(id);
    if (slot == nullptr) return false;
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      (bucket_erase<I>(slot->row.*std::get<I>(kFields).member, id), ...);
    }(Seq{});
    *slot = Slot{};
    --live_;
    reclaim_prefix();
    return true;
  }

  void reclaim_prefix() {
    while (head_ < slots_.size() && slots_[head_].id == kInvalidRow) ++head_;
    if (head_ * 2 < slots_.size()) return;
    slots_.erase(slots_.begin(),
                 slots_.begin() + static_cast<std::ptrdiff_t>(head_));
    base_ += head_;
    head_ = 0;
  }

  /// Stores `value` in column I of `slot`, re-keying the column's index
  /// only when it has one and the value changes.  The row forgets its
  /// image line even when the value is unchanged: every set is journaled,
  /// and a line is remembered only for a row no record touched since.
  template <std::size_t I>
  void assign(Slot& slot, TypeAt<I> value) {
    slot.line_size = 0;
    TypeAt<I>& stored = slot.row.*std::get<I>(kFields).member;
    if constexpr (std::get<I>(kFields).indexed) {
      if (!(stored == value)) {
        bucket_erase<I>(stored, slot.id);
        bucket_insert<I>(value, slot.id);
      }
    }
    stored = std::move(value);
  }

  /// Reads `cell` into column I of `slot`; false when the column cannot
  /// hold it.
  template <std::size_t I>
  bool read_cell(Slot& slot, std::string_view cell) {
    TypeAt<I> value{};
    if (!CellCodec<TypeAt<I>>::read(cell, value)) return false;
    assign<I>(slot, std::move(value));
    return true;
  }

  /// Files `id` under `key` in column I's index; a no-op for a column
  /// without one.
  template <std::size_t I>
  void bucket_insert(const TypeAt<I>& key, RowId id) {
    if constexpr (std::get<I>(kFields).indexed) {
      std::vector<RowId>& ids = std::get<I>(indexes_)[key];
      // Buckets stay id-ordered (not touch-ordered): query order must be
      // derivable from table state so a snapshot-restored table iterates
      // identically to the live one.  Inserts allocate increasing ids, so
      // the common case is an O(1) append; only an update that moves an
      // old row between buckets pays the ordered insert.
      if (ids.empty() || ids.back() < id) {
        ids.push_back(id);
        return;
      }
      ids.insert(std::upper_bound(ids.begin(), ids.end(), id), id);
    }
  }

  template <std::size_t I>
  void bucket_erase(const TypeAt<I>& key, RowId id) {
    if constexpr (std::get<I>(kFields).indexed) {
      auto& index = std::get<I>(indexes_);
      const auto bucket = index.find(key);
      if (bucket == index.end()) return;
      std::vector<RowId>& ids = bucket->second;
      const auto pos = std::lower_bound(ids.begin(), ids.end(), id);
      if (pos != ids.end() && *pos == id) ids.erase(pos);
      if (ids.empty()) index.erase(bucket);
    }
  }

  template <std::size_t I>
  void check_index() const {
    if constexpr (std::get<I>(kFields).indexed) {
      std::size_t covered = 0;
      for (const auto& [key, ids] : std::get<I>(indexes_)) {
        SPHINX_INVARIANT(!ids.empty(), "empty index bucket in table " + name_);
        SPHINX_INVARIANT(std::adjacent_find(ids.begin(), ids.end(),
                                            std::greater_equal<RowId>()) ==
                             ids.end(),
                         "index bucket not strictly id-ordered in table " +
                             name_);
        for (const RowId id : ids) {
          const Row* row = find(id);
          SPHINX_INVARIANT(row != nullptr,
                           "index names a missing row in table " + name_);
          SPHINX_INVARIANT(row->*std::get<I>(kFields).member == key,
                           "index bucket key mismatch in table " + name_);
        }
        covered += ids.size();
      }
      SPHINX_INVARIANT(covered == live_, "index does not cover table " + name_);
    }
  }

  // slots_[i] holds row base_ + i, or is empty (id kInvalidRow) once that
  // row was erased.  Slots before head_ are all empty: the erased prefix,
  // dropped once it reaches half the window so that each slot moves O(1)
  // times.  base_ + slots_.size() <= next_id_.
  std::vector<Slot> slots_;
  RowId base_ = 1;
  std::size_t head_ = 0;
  // One entry per column; only indexed columns hold a map.  The buckets
  // are only probed, never walked in an order-sensitive way.
  decltype(index_tuple(Seq{})) indexes_;
};

}  // namespace sphinx::db
