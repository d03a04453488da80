#include "db/database.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "common/strings.hpp"
#include "db/encoding.hpp"

namespace sphinx::db {
namespace {

/// Turns journaling off for one scope and restores it on every exit, a
/// throw included.
class JournalingPaused {
 public:
  explicit JournalingPaused(bool& journaling)
      : journaling_(journaling), was_(journaling) {
    journaling_ = false;
  }
  ~JournalingPaused() { journaling_ = was_; }
  JournalingPaused(const JournalingPaused&) = delete;
  JournalingPaused& operator=(const JournalingPaused&) = delete;

 private:
  bool& journaling_;
  bool was_;
};

}  // namespace

Database::Database() = default;
Database::~Database() = default;

Table& Database::create_table(const std::string& name, Schema schema) {
  SPHINX_ASSERT(!tables_.contains(name), "table already exists: " + name);
  if (journaling_) journal_.append_create(name, schema.columns());
  auto table = std::make_unique<Table>(name, std::move(schema));
  table->set_observer(this);
  Table& ref = *table;
  tables_.emplace(name, std::move(table));
  creation_order_.push_back(name);
  return ref;
}

Table& Database::table(const std::string& name) {
  const auto it = tables_.find(name);
  SPHINX_ASSERT(it != tables_.end(), "no such table: " + name);
  return *it->second;
}

const Table& Database::table(const std::string& name) const {
  const auto it = tables_.find(name);
  SPHINX_ASSERT(it != tables_.end(), "no such table: " + name);
  return *it->second;
}

bool Database::has_table(const std::string& name) const noexcept {
  return tables_.contains(name);
}

StatusOrError Database::replay(JournalEntry e) {
  const auto fail = [](const std::string& what) {
    return make_error("recover_replay", what);
  };
  if (e.op == JournalEntry::Op::kCreateTable) {
    if (tables_.contains(e.table)) return fail("duplicate table: " + e.table);
    if (const auto valid = Schema::check(e.schema); !valid.ok()) {
      return fail(valid.error().message);
    }
    create_table(e.table, Schema(std::move(e.schema)));
    return {};
  }
  const auto it = tables_.find(e.table);
  if (it == tables_.end()) return fail("record for missing table: " + e.table);
  Table& t = *it->second;
  switch (e.op) {
    case JournalEntry::Op::kInsert:
      // Replay re-allocates each row: a journaled insert carries exactly
      // the id its table hands out next.
      if (e.row != t.next_id()) {
        return fail("insert of row " + std::to_string(e.row) + " into " +
                    e.table + ", which allocates " +
                    std::to_string(t.next_id()) + " next");
      }
      if (!t.schema().accepts(e.cells)) {
        return fail("row does not match schema of table " + e.table);
      }
      t.insert_with_id(e.row, std::move(e.cells));
      return {};
    case JournalEntry::Op::kUpdate:
      if (t.find(e.row) == nullptr) return fail("update of missing row");
      if (!t.schema().accepts_cell(e.column, e.cells.at(0))) {
        return fail("update of column " + std::to_string(e.column) +
                    " that the schema of table " + e.table + " refuses");
      }
      t.update(e.row, e.column, std::move(e.cells[0]));
      return {};
    case JournalEntry::Op::kErase:
      if (!t.erase(e.row)) return fail("erase of missing row");
      return {};
    case JournalEntry::Op::kCreateTable: break;
  }
  return {};
}

StatusOrError Database::recover(const Journal& journal,
                                std::uint64_t from_seq) {
  if (from_seq == 0 && !tables_.empty()) {
    return make_error("recover_nonempty",
                      "recover() requires an empty database");
  }
  if (journal.base_seq() > from_seq) {
    // The journal was compacted past the requested start: the dropped
    // prefix only survives inside the checkpoint image that truncated
    // it, so the caller must recover through that image.
    return make_error("recover_suffix",
                      "journal starts past the requested sequence; "
                      "recover through the matching checkpoint image");
  }
  if (from_seq > journal.next_seq()) {
    return make_error("recover_suffix",
                      "journal ends before the requested sequence");
  }
  // Replay with journaling suspended: instead of re-recording every
  // operation through the observer path one entry at a time, the
  // replayed suffix is adopted wholesale below -- byte-identical to the
  // crashed journal's retained entries.  Entries below from_seq are
  // already folded into the restored snapshot (recovery after a crash
  // between checkpoint publication and truncation sees them still in the
  // journal).
  const JournalingPaused paused(journaling_);
  for (std::uint64_t seq = from_seq; seq < journal.next_seq(); ++seq) {
    auto entry = Journal::decode(
        journal.record(static_cast<std::size_t>(seq - journal.base_seq())));
    if (!entry) return make_error("recover_replay", entry.error().message);
    if (auto applied = replay(std::move(*entry)); !applied.ok()) {
      return applied;
    }
  }
  journal_.adopt_suffix(journal, from_seq);
  check_invariants();  // a replayed store must be as sound as the original
  return {};
}

std::string Database::snapshot() const {
  std::string out = "#db\t1\n";
  for (const std::string& name : creation_order_) {
    const Table& t = *tables_.at(name);
    out += "T\t";
    append_field(out, name);
    out += '\t';
    append_u64(out, t.next_id());
    for (const Column& col : t.schema().columns()) {
      out += '\t';
      append_column(out, col);
    }
    out += '\n';
    t.for_each([&out](const Row& row) {
      out += "R\t";
      append_u64(out, row.id);
      for (const Value& v : row.cells) {
        out += '\t';
        append_value(out, v);
      }
      out += '\n';
    });
  }
  return out;
}

StatusOrError Database::restore(const std::string& snapshot) {
  if (!tables_.empty()) {
    return make_error("restore_nonempty",
                      "restore() requires an empty database");
  }
  // Snapshot application is not a mutation history: nothing it does may
  // reach the journal.
  const JournalingPaused paused(journaling_);
  const auto fail = [](const std::string& what) {
    return make_error("restore_parse", what);
  };

  // Rows follow their table's record in id order, below the allocation
  // cursor it carries.  The cursor is applied after the rows, whose
  // inserts advance the table to max(id)+1.
  Table* current = nullptr;
  RowId cursor = kInvalidRow;
  std::string_view rest = snapshot;
  bool saw_header = false;
  while (!rest.empty()) {
    const std::string_view line = take_line(rest);
    if (line.empty()) continue;
    const std::vector<std::string_view> fields = split_fields(line);
    if (!saw_header) {
      if (fields.size() != 2 || fields[0] != "#db" || fields[1] != "1") {
        return fail("bad snapshot header: " + std::string(line));
      }
      saw_header = true;
      continue;
    }
    if (fields[0] == "T") {
      if (fields.size() < 3) {
        return fail("short table record: " + std::string(line));
      }
      if (current != nullptr) current->restore_next_id(cursor);
      auto name = unescape_field(fields[1]);
      if (!name) return fail(name.error().to_string());
      if (tables_.contains(*name)) return fail("duplicate table: " + *name);
      if (!parse_u64(fields[2], cursor) || cursor == kInvalidRow) {
        return fail("bad allocation cursor: " + std::string(fields[2]));
      }
      std::vector<Column> columns;
      for (std::size_t i = 3; i < fields.size(); ++i) {
        auto column = decode_column(fields[i]);
        if (!column) return fail(column.error().to_string());
        columns.push_back(std::move(*column));
      }
      if (const auto valid = Schema::check(columns); !valid.ok()) {
        return fail(valid.error().message);
      }
      current = &create_table(*name, Schema(std::move(columns)));
    } else if (fields[0] == "R") {
      if (current == nullptr) {
        return fail("row before any table: " + std::string(line));
      }
      if (fields.size() < 2) {
        return fail("short row record: " + std::string(line));
      }
      RowId id = kInvalidRow;
      if (!parse_u64(fields[1], id) || id < current->next_id() ||
          id >= cursor) {
        return fail("row id out of order or past the allocation cursor: " +
                    std::string(line));
      }
      std::vector<Value> cells;
      cells.reserve(fields.size() - 2);
      for (std::size_t i = 2; i < fields.size(); ++i) {
        auto v = decode_value(fields[i]);
        if (!v) return fail(v.error().to_string());
        cells.push_back(std::move(*v));
      }
      if (!current->schema().accepts(cells)) {
        return fail("row does not match schema of table " + current->name() +
                    ": " + std::string(line));
      }
      current->insert_with_id(id, std::move(cells));
    } else {
      return fail("unknown snapshot record: " + std::string(line));
    }
  }
  if (!saw_header) return fail("empty snapshot");
  if (current != nullptr) current->restore_next_id(cursor);
  check_invariants();
  return {};
}

void Database::check_invariants() const {
#if SPHINX_CONTRACTS_ENABLED
  SPHINX_INVARIANT(creation_order_.size() == tables_.size(),
                   "creation order out of sync with the table map");
  for (const auto& [name, table] : tables_) {
    SPHINX_INVARIANT(table != nullptr, "null table in database");
    SPHINX_INVARIANT(table->name() == name,
                     "table registered under the wrong name: " + name);
    SPHINX_INVARIANT(std::find(creation_order_.begin(), creation_order_.end(),
                               name) != creation_order_.end(),
                     "table missing from creation order: " + name);
    table->check_invariants();
  }
  for (std::size_t i = 0; i < journal_.size(); ++i) {
    const auto entry = Journal::decode(journal_.record(i));
    SPHINX_INVARIANT(entry.has_value() && tables_.contains(entry->table),
                     "journal entry references unknown table: " +
                         std::string(journal_.record(i)));
  }
#endif
}

void Database::on_insert(const std::string& table, RowId id,
                         const std::vector<Value>& cells) {
  if (journaling_) journal_.append_insert(table, id, cells);
}

void Database::on_update(const std::string& table, RowId id,
                         std::size_t column, const Value& value) {
  if (journaling_) journal_.append_update(table, id, column, value);
}

void Database::on_erase(const std::string& table, RowId id) {
  if (journaling_) journal_.append_erase(table, id);
}

}  // namespace sphinx::db
