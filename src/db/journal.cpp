#include "db/journal.hpp"

#include <charconv>
#include <iterator>

#include "common/contracts.hpp"
#include "common/strings.hpp"
#include "db/encoding.hpp"

namespace sphinx::db {

void Journal::begin_record(char op, std::string_view table) {
  starts_.push_back(text_.size());
  text_ += op;
  text_ += '\t';
  append_field(text_, table);
}

void Journal::append_erase(std::string_view table, RowId row) {
  begin_record('E', table);
  text_ += '\t';
  append_u64(text_, row);
  text_ += '\n';
}

std::string_view Journal::record(std::size_t i) const {
  SPHINX_PRECONDITION(i < starts_.size(), "journal record index out of range");
  const std::size_t end =
      i + 1 < starts_.size() ? starts_[i + 1] : text_.size();
  return std::string_view(text_).substr(starts_[i], end - starts_[i] - 1);
}

Expected<JournalEntry> Journal::decode(std::string_view line) {
  const std::vector<std::string_view> fields = split_fields(line);
  if (fields.size() < 2) {
    return make_error("journal_parse", "short record: " + std::string(line));
  }
  JournalEntry entry;
  auto table = unescape_field(fields[1]);
  if (!table) return Unexpected<Error>{table.error()};
  entry.table = std::move(*table);

  const std::string_view op = fields[0];
  if (op == "I") {
    if (fields.size() < 3) return make_error("journal_parse", "short insert");
    entry.op = JournalEntry::Op::kInsert;
    if (!parse_u64(fields[2], entry.row)) {
      return make_error("journal_parse",
                        "bad row id: " + std::string(fields[2]));
    }
    entry.cells.assign(fields.begin() + 3, fields.end());
  } else if (op == "U") {
    if (fields.size() != 5) return make_error("journal_parse", "bad update");
    entry.op = JournalEntry::Op::kUpdate;
    std::uint64_t column = 0;
    if (!parse_u64(fields[2], entry.row) || !parse_u64(fields[3], column)) {
      return make_error("journal_parse",
                        "bad update target: " + std::string(line));
    }
    entry.column = static_cast<std::size_t>(column);
    entry.cells.push_back(fields[4]);
  } else if (op == "E") {
    if (fields.size() != 3) return make_error("journal_parse", "bad erase");
    entry.op = JournalEntry::Op::kErase;
    if (!parse_u64(fields[2], entry.row)) {
      return make_error("journal_parse",
                        "bad row id: " + std::string(fields[2]));
    }
  } else {
    return make_error("journal_parse", "unknown op: " + std::string(op));
  }
  return entry;
}

void Journal::truncate_before(std::uint64_t seq) {
  if (seq <= base_seq_) return;
  const std::uint64_t limit = next_seq();
  if (seq > limit) seq = limit;
  const auto dropped = static_cast<std::size_t>(seq - base_seq_);
  const std::size_t cut =
      dropped < starts_.size() ? starts_[dropped] : text_.size();
  text_.erase(0, cut);
  starts_.erase(starts_.begin(),
                starts_.begin() + static_cast<std::ptrdiff_t>(dropped));
  for (std::size_t& start : starts_) start -= cut;
  base_seq_ = seq;
}

std::size_t Journal::size_bytes() const noexcept {
  if (base_seq_ == 0) return text_.size();
  // "#seq\t<base>\n", emitted only once the journal has been truncated.
  char digits[20];
  const char* end =
      std::to_chars(std::begin(digits), std::end(digits), base_seq_).ptr;
  return 6 + static_cast<std::size_t>(end - digits) + text_.size();
}

std::string Journal::serialize() const {
  if (base_seq_ == 0) return text_;
  std::string out;
  out.reserve(size_bytes());
  out += "#seq\t";
  append_u64(out, base_seq_);
  out += '\n';
  out += text_;
  return out;
}

Expected<Journal> Journal::parse(const std::string& text) {
  Journal journal;
  std::string_view rest = text;
  while (!rest.empty()) {
    const std::string_view line = take_line(rest);
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Header line: "#seq\t<base>".  Legacy (pre-compaction) logs have
      // no header and parse with base 0.
      const std::vector<std::string_view> fields = split_fields(line);
      if (fields.size() != 2 || fields[0] != "#seq" || !journal.empty() ||
          journal.base_seq_ != 0) {
        return make_error("journal_parse", "bad header: " + std::string(line));
      }
      if (!parse_u64(fields[1], journal.base_seq_)) {
        return make_error("journal_parse",
                          "bad header seq: " + std::string(fields[1]));
      }
      continue;
    }
    auto entry = decode(line);
    if (!entry) return Unexpected<Error>{entry.error()};
    // Re-encode the record, each cell in its canonical form.
    StatusOrError cells;
    const auto write_cells = [&](std::string& out) {
      for (const std::string_view cell : entry->cells) {
        out += '\t';
        if (cells.ok()) cells = append_canonical_cell(out, cell);
      }
    };
    switch (entry->op) {
      case JournalEntry::Op::kInsert:
        journal.append_insert(entry->table, entry->row, write_cells);
        break;
      case JournalEntry::Op::kUpdate:
        journal.append_update(entry->table, entry->row, entry->column,
                              write_cells);
        break;
      case JournalEntry::Op::kErase:
        journal.append_erase(entry->table, entry->row);
        break;
    }
    if (!cells.ok()) return Unexpected<Error>{cells.error()};
  }
  return journal;
}

}  // namespace sphinx::db
