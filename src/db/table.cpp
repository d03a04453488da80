#include "db/table.hpp"

#include <algorithm>
#include <limits>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "common/contracts.hpp"

namespace sphinx::db {

bool indexable(ValueType type) noexcept {
  return type == ValueType::kInt || type == ValueType::kText ||
         type == ValueType::kBool;
}

Schema::Schema(std::initializer_list<Column> cols)
    : Schema(std::vector<Column>(cols.begin(), cols.end())) {}

Schema::Schema(std::vector<Column> cols) : columns_(std::move(cols)) {
  const StatusOrError valid = check(columns_);
  SPHINX_ASSERT(valid.ok(), valid.error().message);
}

StatusOrError Schema::check(const std::vector<Column>& cols) {
  std::unordered_set<std::string_view> names;
  for (const Column& column : cols) {
    if (!names.insert(column.name).second) {
      return make_error("bad_schema",
                        "duplicate column name in schema: " + column.name);
    }
    if (column.indexed && !indexable(column.type)) {
      return make_error("bad_schema",
                        "column " + column.name +
                            " cannot be indexed: only int, text and bool "
                            "columns carry an index");
    }
  }
  return {};
}

bool Schema::accepts(const std::vector<Value>& row) const noexcept {
  if (row.size() != columns_.size()) return false;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (!accepts_cell(i, row[i])) return false;
  }
  return true;
}

bool Schema::accepts_cell(std::size_t i, const Value& v) const noexcept {
  if (i >= columns_.size()) return false;
  if (columns_[i].type == ValueType::kNull) return true;  // untyped column
  if (v.is_null()) return true;                           // null always ok
  if (v.type() == ValueType::kInt && columns_[i].type == ValueType::kReal) {
    return true;  // ints widen to reals
  }
  return v.type() == columns_[i].type;
}

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      indexes_(schema_.size()) {}

RowId Table::insert(std::vector<Value> cells) {
  const RowId id = next_id_;
  insert_with_id(id, std::move(cells));
  return id;
}

void Table::insert_with_id(RowId id, std::vector<Value> cells) {
  SPHINX_ASSERT(id >= next_id_ && id != std::numeric_limits<RowId>::max(),
                "row id " + std::to_string(id) + " is not fresh in table " +
                    name_);
  SPHINX_ASSERT(schema_.accepts(cells),
                "row does not match schema of table " + name_);
  if (slots_.empty()) base_ = id;  // nothing live: the window restarts here
  // Ids skipped since the last row (erased tail rows, or an image's gaps)
  // stay empty slots.
  slots_.resize(static_cast<std::size_t>(id - base_));
  const Row& row = slots_.emplace_back(Row{id, std::move(cells)});
  ++live_;
  next_id_ = id + 1;
  index_insert(row);
  if (observer_ != nullptr) observer_->on_insert(name_, id, row.cells);
}

const Row* Table::find(RowId id) const {
  if (id < base_ || id - base_ >= slots_.size()) return nullptr;
  const Row& row = slots_[static_cast<std::size_t>(id - base_)];
  return row.id == kInvalidRow ? nullptr : &row;
}

Row* Table::slot(RowId id) {
  return const_cast<Row*>(std::as_const(*this).find(id));
}

bool Table::update(RowId id, std::size_t column, Value value) {
  Row* row = slot(id);
  if (row == nullptr) return false;
  SPHINX_ASSERT(column < schema_.size(), "column index out of range");
  SPHINX_ASSERT(schema_.accepts_cell(column, value),
                "cell type does not match schema of table " + name_);
  Value& cell = row->cells[column];
  if (schema_.at(column).indexed && !(cell == value)) {
    bucket_erase(column, cell, id);
    bucket_insert(column, value, id);
  }
  cell = std::move(value);
  if (observer_ != nullptr) observer_->on_update(name_, id, column, cell);
  return true;
}

bool Table::erase(RowId id) {
  Row* row = slot(id);
  if (row == nullptr) return false;
  index_erase(*row);
  *row = Row{};
  --live_;
  reclaim_prefix();
  if (observer_ != nullptr) observer_->on_erase(name_, id);
  return true;
}

void Table::reclaim_prefix() {
  while (head_ < slots_.size() && slots_[head_].id == kInvalidRow) ++head_;
  if (head_ * 2 < slots_.size()) return;
  slots_.erase(slots_.begin(),
               slots_.begin() + static_cast<std::ptrdiff_t>(head_));
  base_ += head_;
  head_ = 0;
}

const Table::Index& Table::index(std::size_t column) const {
  SPHINX_ASSERT(column < schema_.size() && schema_.at(column).indexed,
                "query on unindexed column " + std::to_string(column) +
                    " of table " + name_);
  return indexes_[column];
}

const std::vector<RowId>& Table::find_by(std::size_t column,
                                         const Value& value) const {
  static const std::vector<RowId> kNone;
  const Index& idx = index(column);
  const auto bucket = idx.find(value);
  return bucket == idx.end() ? kNone : bucket->second;
}

const Row* Table::find_first(std::size_t column, const Value& value) const {
  const std::vector<RowId>& ids = find_by(column, value);
  return ids.empty() ? nullptr : find(ids.front());
}

void Table::for_each(const std::function<void(const Row&)>& fn) const {
  for (std::size_t i = head_; i < slots_.size(); ++i) {
    if (slots_[i].id != kInvalidRow) fn(slots_[i]);
  }
}

void Table::check_invariants() const {
#if SPHINX_CONTRACTS_ENABLED
  SPHINX_INVARIANT(base_ != kInvalidRow && head_ <= slots_.size() &&
                       base_ + slots_.size() <= next_id_,
                   "row window beyond allocation cursor in table " + name_);
  std::size_t live = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Row& row = slots_[i];
    if (row.id == kInvalidRow) {
      SPHINX_INVARIANT(row.cells.empty(),
                       "erased slot holds cells in table " + name_);
      continue;
    }
    ++live;
    SPHINX_INVARIANT(i >= head_,
                     "live row in the erased prefix of table " + name_);
    SPHINX_INVARIANT(row.id == base_ + i,
                     "row stored outside its id's slot in table " + name_);
    SPHINX_INVARIANT(schema_.accepts(row.cells),
                     "row violates schema of table " + name_);
  }
  SPHINX_INVARIANT(live == live_, "live row count drifted in table " + name_);
  for (std::size_t col = 0; col < indexes_.size(); ++col) {
    if (!schema_.at(col).indexed) continue;
    std::size_t covered = 0;
    for (const auto& [key, ids] : indexes_[col]) {
      SPHINX_INVARIANT(!ids.empty(),
                       "empty index bucket in table " + name_);
      SPHINX_INVARIANT(std::adjacent_find(ids.begin(), ids.end(),
                                          std::greater_equal<RowId>()) ==
                           ids.end(),
                       "index bucket not strictly id-ordered in table " +
                           name_);
      for (const RowId id : ids) {
        const Row* row = find(id);
        SPHINX_INVARIANT(row != nullptr,
                         "index names a missing row in table " + name_);
        SPHINX_INVARIANT(row->cells[col] == key,
                         "index bucket key mismatch in table " + name_);
      }
      covered += ids.size();
    }
    SPHINX_INVARIANT(covered == live_,
                     "index does not cover table " + name_);
  }
#endif
}

void Table::restore_next_id(RowId next_id) {
  SPHINX_PRECONDITION(next_id >= next_id_,
                      "allocation cursor cannot move backwards");
  next_id_ = next_id;
}

void Table::index_insert(const Row& row) {
  for (std::size_t col = 0; col < indexes_.size(); ++col) {
    if (schema_.at(col).indexed) bucket_insert(col, row.cells[col], row.id);
  }
}

void Table::index_erase(const Row& row) {
  for (std::size_t col = 0; col < indexes_.size(); ++col) {
    if (schema_.at(col).indexed) bucket_erase(col, row.cells[col], row.id);
  }
}

void Table::bucket_insert(std::size_t column, const Value& key, RowId id) {
  std::vector<RowId>& ids = indexes_[column][key];
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

void Table::bucket_erase(std::size_t column, const Value& key, RowId id) {
  Index& idx = indexes_[column];
  const auto bucket = idx.find(key);
  if (bucket == idx.end()) return;
  std::vector<RowId>& ids = bucket->second;
  const auto pos = std::lower_bound(ids.begin(), ids.end(), id);
  if (pos != ids.end() && *pos == id) ids.erase(pos);
  if (ids.empty()) idx.erase(bucket);
}

}  // namespace sphinx::db
