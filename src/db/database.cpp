#include "db/database.hpp"

#include <algorithm>
#include <sstream>

#include "common/contracts.hpp"
#include "common/strings.hpp"
#include "db/encoding.hpp"

namespace sphinx::db {

Database::Database() = default;
Database::~Database() = default;

Table& Database::create_table(const std::string& name, Schema schema) {
  SPHINX_ASSERT(!tables_.contains(name), "table already exists: " + name);
  if (journaling_) {
    JournalEntry entry;
    entry.op = JournalEntry::Op::kCreateTable;
    entry.table = name;
    entry.schema = schema.columns();
    journal_.append(std::move(entry));
  }
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
  // Replay with journaling suspended: instead of re-recording every
  // operation through the observer path one entry at a time, the
  // replayed suffix is adopted wholesale below -- byte-identical to the
  // crashed journal's retained entries.
  const bool was_journaling = journaling_;
  journaling_ = false;
  const auto fail = [&](const std::string& what) {
    journaling_ = was_journaling;
    return make_error("recover_replay", what);
  };
  std::uint64_t seq = journal.base_seq();
  for (const JournalEntry& e : journal.entries()) {
    // Entries below from_seq are already folded into the restored
    // snapshot (recovery after a crash between checkpoint publication
    // and truncation sees them still in the journal).
    if (seq++ < from_seq) continue;
    switch (e.op) {
      case JournalEntry::Op::kCreateTable: {
        if (tables_.contains(e.table)) {
          return fail("duplicate table: " + e.table);
        }
        create_table(e.table, Schema(e.schema));
        break;
      }
      case JournalEntry::Op::kInsert: {
        if (!tables_.contains(e.table)) {
          return fail("insert into missing table");
        }
        table(e.table).insert_with_id(e.row, e.cells);
        break;
      }
      case JournalEntry::Op::kUpdate: {
        if (!tables_.contains(e.table) ||
            !table(e.table).update(e.row, e.column, e.cells.at(0))) {
          return fail("update of missing row");
        }
        break;
      }
      case JournalEntry::Op::kErase: {
        if (!tables_.contains(e.table) || !table(e.table).erase(e.row)) {
          return fail("erase of missing row");
        }
        break;
      }
    }
  }
  journaling_ = was_journaling;
  journal_.adopt_suffix(journal, from_seq);
  check_invariants();  // a replayed store must be as sound as the original
  return {};
}

std::string Database::snapshot() const {
  std::string out = "#db\t1\n";
  for (const std::string& name : creation_order_) {
    const Table& t = *tables_.at(name);
    out += "T\t";
    out += escape_field(name);
    out += '\t';
    out += std::to_string(t.next_id());
    for (const Column& col : t.schema().columns()) {
      out += '\t';
      out += encode_column(col);
    }
    out += '\n';
    t.for_each([&out](const Row& row) {
      out += "R\t";
      out += std::to_string(row.id);
      for (const Value& v : row.cells) {
        out += '\t';
        out += encode_value(v);
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
  const bool was_journaling = journaling_;
  journaling_ = false;
  const auto fail = [&](const std::string& what) {
    journaling_ = was_journaling;
    return make_error("restore_parse", what);
  };

  Table* current = nullptr;
  RowId pending_next_id = kInvalidRow;
  const auto finish_table = [&] {
    // The allocation cursor is applied after the rows: restore_next_id
    // only moves forward, and the inserts advanced it to max(id)+1.
    if (current != nullptr && pending_next_id != kInvalidRow) {
      current->restore_next_id(pending_next_id);
    }
  };

  std::istringstream in(snapshot);
  std::string line;
  bool saw_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> fields = split(line, '\t');
    if (!saw_header) {
      if (fields.size() != 2 || fields[0] != "#db" || fields[1] != "1") {
        return fail("bad snapshot header: " + line);
      }
      saw_header = true;
      continue;
    }
    if (fields[0] == "T") {
      if (fields.size() < 3) return fail("short table record: " + line);
      finish_table();
      auto name = unescape_field(fields[1]);
      if (!name) return fail(name.error().to_string());
      if (tables_.contains(*name)) return fail("duplicate table: " + *name);
      std::vector<Column> columns;
      for (std::size_t i = 3; i < fields.size(); ++i) {
        auto column = decode_column(fields[i]);
        if (!column) return fail(column.error().to_string());
        columns.push_back(std::move(*column));
      }
      current = &create_table(*name, Schema(std::move(columns)));
      try {
        pending_next_id = std::stoull(fields[2]);
      } catch (const std::exception&) {
        return fail("bad allocation cursor: " + fields[2]);
      }
    } else if (fields[0] == "R") {
      if (current == nullptr) return fail("row before any table: " + line);
      if (fields.size() < 2) return fail("short row record: " + line);
      RowId id = kInvalidRow;
      try {
        id = std::stoull(fields[1]);
      } catch (const std::exception&) {
        return fail("bad row id: " + fields[1]);
      }
      std::vector<Value> cells;
      cells.reserve(fields.size() - 2);
      for (std::size_t i = 2; i < fields.size(); ++i) {
        auto v = decode_value(fields[i]);
        if (!v) return fail(v.error().to_string());
        cells.push_back(std::move(*v));
      }
      current->insert_with_id(id, std::move(cells));
    } else {
      return fail("unknown snapshot record: " + line);
    }
  }
  if (!saw_header) return fail("empty snapshot");
  finish_table();
  journaling_ = was_journaling;
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
  for (const JournalEntry& e : journal_.entries()) {
    SPHINX_INVARIANT(tables_.contains(e.table),
                     "journal entry references unknown table: " + e.table);
  }
#endif
}

void Database::on_insert(const std::string& table, RowId id,
                         const std::vector<Value>& cells) {
  if (!journaling_) return;
  JournalEntry entry;
  entry.op = JournalEntry::Op::kInsert;
  entry.table = table;
  entry.row = id;
  entry.cells = cells;
  journal_.append(std::move(entry));
}

void Database::on_update(const std::string& table, RowId id,
                         std::size_t column, const Value& value) {
  if (!journaling_) return;
  JournalEntry entry;
  entry.op = JournalEntry::Op::kUpdate;
  entry.table = table;
  entry.row = id;
  entry.column = column;
  entry.cells = {value};
  journal_.append(std::move(entry));
}

void Database::on_erase(const std::string& table, RowId id) {
  if (!journaling_) return;
  JournalEntry entry;
  entry.op = JournalEntry::Op::kErase;
  entry.table = table;
  entry.row = id;
  journal_.append(std::move(entry));
}

}  // namespace sphinx::db
