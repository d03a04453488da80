#include "db/database.hpp"

#include <algorithm>
#include <limits>

#include "common/contracts.hpp"
#include "common/strings.hpp"
#include "db/encoding.hpp"

namespace sphinx::db {
namespace {

/// The one row id no table can hand out: the cursor past it would wrap.
constexpr RowId kLastRow = std::numeric_limits<RowId>::max();

/// The missing or mismatched table a recovery must refuse.
Unexpected<Error> schema_error(const std::string& what) {
  return make_error("recover_schema", what);
}

/// Re-codes a table's refusal under the recovery stage's error code.
StatusOrError with_code(const char* code, const StatusOrError& status) {
  if (status.ok()) return status;
  return make_error(code, status.error().message);
}

}  // namespace

Database::Database() = default;
Database::~Database() = default;

void Database::add(std::unique_ptr<TableBase> table) {
  SPHINX_ASSERT(position(table->name()) == tables_.size(),
                "table already exists: " + table->name());
  tables_.push_back(std::move(table));
}

std::size_t Database::rows() const noexcept {
  std::size_t rows = 0;
  for (const auto& table : tables_) rows += table->size();
  return rows;
}

std::size_t Database::position(std::string_view name) const noexcept {
  std::size_t i = 0;
  while (i < tables_.size() && tables_[i]->name() != name) ++i;
  return i;
}

bool Database::fresh() const noexcept {
  return std::all_of(tables_.begin(), tables_.end(), [](const auto& table) {
    return table->empty() && table->next_id() == 1;
  });
}

StatusOrError Database::replay(const JournalEntry& e) {
  const auto fail = [](const std::string& what) {
    return make_error("recover_replay", what);
  };
  const std::size_t at = position(e.table);
  if (at == tables_.size()) {
    return fail("record for undeclared table: " + e.table);
  }
  TableBase& t = *tables_[at];
  switch (e.op) {
    case JournalEntry::Op::kInsert:
      // Replay re-allocates each row: a journaled insert carries exactly
      // the id its table hands out next, and never the last id, after
      // which no row could be allocated.
      if (e.row != t.next_id() || e.row == kLastRow) {
        return fail("insert of row " + std::to_string(e.row) + " into " +
                    e.table + ", which allocates " +
                    std::to_string(t.next_id()) + " next");
      }
      return with_code("recover_replay", t.read_row(e.row, e.cells));
    case JournalEntry::Op::kUpdate:
      return with_code("recover_replay",
                       t.read_update(e.row, e.column, e.cells[0]));
    case JournalEntry::Op::kErase:
      if (!t.replay_erase(e.row)) return fail("erase of missing row");
      return {};
  }
  return {};
}

bool Database::checkpoint_due() const noexcept {
  const std::size_t records = durable_.journal.size();
  return records > 0 && records >= image_rows_;
}

void Database::checkpoint(const std::function<bool()>& mid_hook) {
  const std::string_view last =
      durable_.image ? *durable_.image : std::string_view{};
  std::string out;
  // Stores grow between images: room for the last one and an eighth.
  out.reserve(last.size() + last.size() / 8);
  out += "#db\t1\n";
  for (const auto& table : tables_) {
    out += "T\t";
    append_field(out, table->name());
    out += '\t';
    append_u64(out, table->next_id());
    for (const Column& col : table->columns()) {
      out += '\t';
      append_column(out, col);
    }
    out += '\n';
    table->append_rows(out, last);
  }
  // Publish first: from here on a recovered store no longer needs the
  // journal prefix, whether or not the truncation below completes.
  durable_.image = std::make_shared<const std::string>(std::move(out));
  durable_.image_seq = durable_.journal.next_seq();
  image_rows_ = rows();
  if (mid_hook && mid_hook()) return;  // crashing; journal left untruncated
  durable_.journal.truncate_before(durable_.image_seq);
  SPHINX_POSTCONDITION(durable_.journal.base_seq() == durable_.image_seq,
                       "compaction must advance the journal base to the "
                       "image's sequence");
}

StatusOrError Database::recover(const DurableState& state) {
  if (!fresh()) {
    return make_error("recover_nonempty", "recover() requires empty tables");
  }
  if (state.image) {
    if (auto restored = restore(*state.image); !restored.ok()) return restored;
  } else if (state.image_seq != 0) {
    return make_error("restore_parse",
                      "no image at sequence " +
                          std::to_string(state.image_seq));
  }
  const std::size_t image_rows = rows();
  const Journal& journal = state.journal;
  if (journal.base_seq() > state.image_seq) {
    // The journal was compacted past the image: the dropped records only
    // survive inside a later image, which this state does not hold.
    return make_error("recover_suffix",
                      "journal starts past the image's sequence; "
                      "recover through the matching checkpoint image");
  }
  if (state.image_seq > journal.next_seq()) {
    return make_error("recover_suffix",
                      "journal ends before the image's sequence");
  }
  // The records replay onto the declared tables: empty ones without an
  // image, the restored ones with it.  Nothing replay applies is
  // journaled: the journal is adopted below, byte-identical to the
  // crashed one's records from image_seq on.  Records below image_seq
  // are already folded into the image (a crash between its publication
  // and the truncation leaves them in the journal).
  for (std::uint64_t seq = state.image_seq; seq < journal.next_seq(); ++seq) {
    const auto entry = Journal::decode(
        journal.record(static_cast<std::size_t>(seq - journal.base_seq())));
    if (!entry) return make_error("recover_replay", entry.error().message);
    if (auto applied = replay(*entry); !applied.ok()) return applied;
  }
  durable_ = state;
  durable_.journal.truncate_before(state.image_seq);
  image_rows_ = image_rows;
  return {};
}

StatusOrError Database::restore(std::string_view image) {
  const auto fail = [](const std::string& what) {
    return make_error("restore_parse", what);
  };

  // Rows follow their table's record in id order, below the allocation
  // cursor it carries.  The cursor is applied after the rows, whose
  // inserts advance the table to max(id)+1.
  std::vector<bool> seen(tables_.size(), false);
  TableBase* current = nullptr;
  RowId cursor = kInvalidRow;
  std::string_view rest = image;
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
      if (!parse_u64(fields[2], cursor) || cursor == kInvalidRow ||
          cursor == kLastRow) {
        return fail("bad allocation cursor: " + std::string(fields[2]));
      }
      std::vector<Column> columns;
      for (std::size_t i = 3; i < fields.size(); ++i) {
        auto column = decode_column(fields[i]);
        if (!column) return fail(column.error().to_string());
        columns.push_back(std::move(*column));
      }
      const std::size_t at = position(*name);
      if (at == tables_.size()) {
        return schema_error("undeclared table " + *name);
      }
      if (seen[at]) return fail("duplicate table: " + *name);
      if (columns != tables_[at]->columns()) {
        return schema_error("table " + *name +
                            " does not match its declared schema");
      }
      seen[at] = true;
      current = tables_[at].get();
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
      const auto cells = std::span(fields).subspan(2);
      if (auto status = current->read_row(id, cells); !status.ok()) {
        return fail(status.error().message);
      }
    } else {
      return fail("unknown snapshot record: " + std::string(line));
    }
  }
  if (!saw_header) return fail("empty snapshot");
  if (current != nullptr) current->restore_next_id(cursor);
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    if (!seen[i]) return schema_error("missing table " + tables_[i]->name());
  }
  return {};
}

void Database::check_invariants() const {
#if SPHINX_CONTRACTS_ENABLED
  const std::string_view image =
      durable_.image ? *durable_.image : std::string_view{};
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    SPHINX_INVARIANT(position(tables_[i]->name()) == i,
                     "table registered twice: " + tables_[i]->name());
    tables_[i]->check_invariants();
    tables_[i]->check_lines(image);
  }
  const Journal& journal = durable_.journal;
  for (std::size_t i = 0; i < journal.size(); ++i) {
    const auto entry = Journal::decode(journal.record(i));
    SPHINX_INVARIANT(
        entry.has_value() && position(entry->table) < tables_.size(),
        "journal entry references unknown table: " +
            std::string(journal.record(i)));
  }
#endif
}

}  // namespace sphinx::db
