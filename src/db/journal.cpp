#include "db/journal.hpp"

#include <sstream>

#include "common/contracts.hpp"
#include "common/strings.hpp"
#include "db/encoding.hpp"

namespace sphinx::db {
namespace {

std::size_t digit_count(std::uint64_t v) noexcept {
  std::size_t n = 1;
  while (v >= 10) {
    v /= 10;
    ++n;
  }
  return n;
}

/// Byte length encode_value(v) would produce.  Numeric payloads are
/// formatted to measure them (their width is format-defined); text is
/// measured without building the escaped copy.
std::size_t value_text_size(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull: return 2;
    case ValueType::kText: return 2 + escaped_size(v.as_text());
    case ValueType::kBool: return 3;
    default: return encode_value(v).size();
  }
}

/// Serialized line length of one entry, matching append_entry_text.
std::size_t entry_text_size(const JournalEntry& e) {
  // Every op starts "X\t<table>" and ends "\n".
  std::size_t n = 1 + 1 + escaped_size(e.table) + 1;
  switch (e.op) {
    case JournalEntry::Op::kCreateTable:
      for (const Column& col : e.schema) {
        n += 1 + escaped_size(col.name) + 1 +
             std::char_traits<char>::length(to_string(col.type)) +
             (col.indexed ? 1 : 0);
      }
      break;
    case JournalEntry::Op::kInsert:
      n += 1 + digit_count(e.row);
      for (const Value& v : e.cells) n += 1 + value_text_size(v);
      break;
    case JournalEntry::Op::kUpdate:
      n += 1 + digit_count(e.row) + 1 + digit_count(e.column) + 1 +
           value_text_size(e.cells.at(0));
      break;
    case JournalEntry::Op::kErase:
      n += 1 + digit_count(e.row);
      break;
  }
  return n;
}

void append_entry_text(const JournalEntry& e, std::string& out) {
  switch (e.op) {
    case JournalEntry::Op::kCreateTable: {
      out += 'C';
      out += '\t';
      out += escape_field(e.table);
      for (const Column& col : e.schema) {
        out += '\t';
        out += encode_column(col);
      }
      break;
    }
    case JournalEntry::Op::kInsert: {
      out += 'I';
      out += '\t';
      out += escape_field(e.table);
      out += '\t';
      out += std::to_string(e.row);
      for (const Value& v : e.cells) {
        out += '\t';
        out += encode_value(v);
      }
      break;
    }
    case JournalEntry::Op::kUpdate: {
      out += 'U';
      out += '\t';
      out += escape_field(e.table);
      out += '\t';
      out += std::to_string(e.row);
      out += '\t';
      out += std::to_string(e.column);
      out += '\t';
      out += encode_value(e.cells.at(0));
      break;
    }
    case JournalEntry::Op::kErase: {
      out += 'E';
      out += '\t';
      out += escape_field(e.table);
      out += '\t';
      out += std::to_string(e.row);
      break;
    }
  }
  out += '\n';
}

std::size_t header_text_size(std::uint64_t base_seq) noexcept {
  // "#seq\t<base>\n", emitted only once the journal has been truncated.
  return base_seq == 0 ? 0 : 4 + 1 + digit_count(base_seq) + 1;
}

}  // namespace

void Journal::truncate_before(std::uint64_t seq) {
  if (seq <= base_seq_) return;
  const std::uint64_t limit = next_seq();
  if (seq > limit) seq = limit;
  entries_.erase(entries_.begin(),
                 entries_.begin() +
                     static_cast<std::ptrdiff_t>(seq - base_seq_));
  base_seq_ = seq;
}

void Journal::adopt_suffix(const Journal& src, std::uint64_t from_seq) {
  entries_.clear();
  base_seq_ = std::max(from_seq, src.base_seq_);
  const std::uint64_t limit = src.next_seq();
  SPHINX_PRECONDITION(base_seq_ <= limit,
                      "adopt_suffix start past the source journal's end");
  entries_.assign(
      src.entries_.begin() +
          static_cast<std::ptrdiff_t>(base_seq_ - src.base_seq_),
      src.entries_.end());
}

std::size_t Journal::size_bytes() const noexcept {
  std::size_t n = header_text_size(base_seq_);
  for (const JournalEntry& e : entries_) n += entry_text_size(e);
  return n;
}

std::string Journal::serialize() const {
  std::string out;
  out.reserve(size_bytes());
  if (base_seq_ != 0) {
    out += "#seq\t";
    out += std::to_string(base_seq_);
    out += '\n';
  }
  for (const JournalEntry& e : entries_) append_entry_text(e, out);
  SPHINX_POSTCONDITION(out.size() == size_bytes(),
                       "size_bytes() disagrees with serialize()");
  return out;
}

Expected<Journal> Journal::parse(const std::string& text) {
  Journal journal;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Header line: "#seq\t<base>".  Legacy (pre-compaction) logs have
      // no header and parse with base 0.
      const std::vector<std::string> fields = split(line, '\t');
      if (fields.size() != 2 || fields[0] != "#seq" ||
          !journal.entries_.empty() || journal.base_seq_ != 0) {
        return make_error("journal_parse", "bad header: " + line);
      }
      if (!parse_u64(fields[1], journal.base_seq_)) {
        return make_error("journal_parse", "bad header seq: " + fields[1]);
      }
      continue;
    }
    const std::vector<std::string> fields = split(line, '\t');
    if (fields.size() < 2) {
      return make_error("journal_parse", "short record: " + line);
    }
    JournalEntry entry;
    auto table = unescape_field(fields[1]);
    if (!table) return Unexpected<Error>{table.error()};
    entry.table = std::move(*table);

    const std::string& op = fields[0];
    if (op == "C") {
      entry.op = JournalEntry::Op::kCreateTable;
      for (std::size_t i = 2; i < fields.size(); ++i) {
        auto column = decode_column(fields[i]);
        if (!column) return Unexpected<Error>{column.error()};
        entry.schema.push_back(std::move(*column));
      }
    } else if (op == "I") {
      if (fields.size() < 3) return make_error("journal_parse", "short insert");
      entry.op = JournalEntry::Op::kInsert;
      if (!parse_u64(fields[2], entry.row)) {
        return make_error("journal_parse", "bad row id: " + fields[2]);
      }
      for (std::size_t i = 3; i < fields.size(); ++i) {
        auto v = decode_value(fields[i]);
        if (!v) return Unexpected<Error>{v.error()};
        entry.cells.push_back(std::move(*v));
      }
    } else if (op == "U") {
      if (fields.size() != 5) return make_error("journal_parse", "bad update");
      entry.op = JournalEntry::Op::kUpdate;
      std::uint64_t column = 0;
      if (!parse_u64(fields[2], entry.row) || !parse_u64(fields[3], column)) {
        return make_error("journal_parse", "bad update target: " + line);
      }
      entry.column = static_cast<std::size_t>(column);
      auto v = decode_value(fields[4]);
      if (!v) return Unexpected<Error>{v.error()};
      entry.cells.push_back(std::move(*v));
    } else if (op == "E") {
      if (fields.size() != 3) return make_error("journal_parse", "bad erase");
      entry.op = JournalEntry::Op::kErase;
      if (!parse_u64(fields[2], entry.row)) {
        return make_error("journal_parse", "bad row id: " + fields[2]);
      }
    } else {
      return make_error("journal_parse", "unknown op: " + op);
    }
    journal.append(std::move(entry));
  }
  return journal;
}

}  // namespace sphinx::db
