#include "db/table.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/contracts.hpp"

namespace sphinx::db {

bool indexable(ValueType type) noexcept {
  return type == ValueType::kInt || type == ValueType::kText ||
         type == ValueType::kBool;
}

Schema::Schema(std::initializer_list<Column> cols)
    : Schema(std::vector<Column>(cols.begin(), cols.end())) {}

Schema::Schema(std::vector<Column> cols) : columns_(std::move(cols)) {
  std::unordered_set<std::string> names;
  for (const Column& column : columns_) {
    SPHINX_ASSERT(names.insert(column.name).second,
                  "duplicate column name in schema");
    SPHINX_ASSERT(!column.indexed || indexable(column.type),
                  "column " + column.name +
                      " cannot be indexed: only int, text and bool columns "
                      "carry an index");
  }
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
  SPHINX_ASSERT(id != kInvalidRow, "invalid row id");
  SPHINX_ASSERT(schema_.accepts(cells),
                "row does not match schema of table " + name_);
  const auto [it, ok] = rows_.try_emplace(id, Row{id, std::move(cells)});
  SPHINX_ASSERT(ok, "row id already present in table " + name_);
  next_id_ = std::max(next_id_, id + 1);
  index_insert(it->second);
  if (observer_ != nullptr) observer_->on_insert(name_, id, it->second.cells);
}

bool Table::update(RowId id, std::size_t column, Value value) {
  const auto it = rows_.find(id);
  if (it == rows_.end()) return false;
  SPHINX_ASSERT(column < schema_.size(), "column index out of range");
  SPHINX_ASSERT(schema_.accepts_cell(column, value),
                "cell type does not match schema of table " + name_);
  Value& cell = it->second.cells[column];
  if (schema_.at(column).indexed && !(cell == value)) {
    bucket_erase(column, cell, id);
    bucket_insert(column, value, id);
  }
  cell = std::move(value);
  if (observer_ != nullptr) observer_->on_update(name_, id, column, cell);
  return true;
}

bool Table::erase(RowId id) {
  const auto it = rows_.find(id);
  if (it == rows_.end()) return false;
  index_erase(it->second);
  rows_.erase(it);
  if (observer_ != nullptr) observer_->on_erase(name_, id);
  return true;
}

const Row* Table::find(RowId id) const {
  const auto it = rows_.find(id);
  return it == rows_.end() ? nullptr : &it->second;
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
  for (const auto& [id, row] : rows_) fn(row);
}

void Table::check_invariants() const {
#if SPHINX_CONTRACTS_ENABLED
  for (const auto& [id, row] : rows_) {
    SPHINX_INVARIANT(id != kInvalidRow, "table " + name_ + " holds row id 0");
    SPHINX_INVARIANT(id == row.id,
                     "row key/id mismatch in table " + name_);
    SPHINX_INVARIANT(id < next_id_,
                     "row id beyond allocation cursor in table " + name_);
    SPHINX_INVARIANT(schema_.accepts(row.cells),
                     "row violates schema of table " + name_);
  }
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
        const auto it = rows_.find(id);
        SPHINX_INVARIANT(it != rows_.end(),
                         "index names a missing row in table " + name_);
        SPHINX_INVARIANT(it->second.cells[col] == key,
                         "index bucket key mismatch in table " + name_);
      }
      covered += ids.size();
    }
    SPHINX_INVARIANT(covered == rows_.size(),
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
