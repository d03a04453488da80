#pragma once
/// \file journal.hpp
/// Append-only operation log for crash recovery.
///
/// Every committed mutation on every table of a Database is appended here:
/// row inserts, cell updates and row erasures.  Tables are not: their
/// owner declares them in code, and a checkpoint image carries their
/// schemas.  A fresh Database replaying the journal onto its declared
/// tables reaches the exact pre-crash state -- this is the mechanism
/// behind the paper's claim that SPHINX is "easily recoverable from
/// internal component failures" (section 3.1).  The log has a text
/// serialization so it can be persisted and reloaded.
///
/// The journal is held as that text: each record is the line serialize()
/// writes for it, encoded once on append into one buffer.  Replay reads
/// records back through decode(), the same decoder parse() uses, so the
/// log has exactly one codec.
///
/// Entries carry monotonic sequence numbers: the i-th retained entry has
/// sequence base_seq() + i, and truncate_before() compacts a prefix (after
/// a checkpoint captured its effects) without renumbering the suffix.  A
/// checkpoint image recording sequence S therefore pairs with exactly the
/// entries whose sequence is >= S, whether or not the prefix was already
/// dropped -- Database::recover(), after a crash between an image's
/// publication and the truncation, copies the journal and completes the
/// truncation.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "db/encoding.hpp"

namespace sphinx::db {

/// Stable identifier of a row within one table.
using RowId = std::uint64_t;
inline constexpr RowId kInvalidRow = 0;

/// One journal record in decoded form, as Journal::decode reads it.
struct JournalEntry {
  enum class Op { kInsert, kUpdate, kErase };

  Op op = Op::kInsert;
  std::string table;
  RowId row = kInvalidRow;
  std::size_t column = 0;  ///< kUpdate only
  /// The encoded cells, as views into the decoded line: kInsert's full
  /// row, kUpdate's one cell.  Their table's columns read them.
  std::vector<std::string_view> cells;
};

/// The append-only log.
class Journal {
 public:
  /// Record encoders: each appends one record's line.  Inserts and
  /// updates take a writer that appends the cells, each after a tab.
  template <typename WriteCells>
  void append_insert(std::string_view table, RowId row,
                     const WriteCells& write_cells) {
    begin_record('I', table);
    text_ += '\t';
    append_u64(text_, row);
    write_cells(text_);
    text_ += '\n';
  }
  template <typename WriteCell>
  void append_update(std::string_view table, RowId row, std::size_t column,
                     const WriteCell& write_cell) {
    begin_record('U', table);
    text_ += '\t';
    append_u64(text_, row);
    text_ += '\t';
    append_u64(text_, column);
    write_cell(text_);
    text_ += '\n';
  }
  void append_erase(std::string_view table, RowId row);

  [[nodiscard]] std::size_t size() const noexcept { return starts_.size(); }
  [[nodiscard]] bool empty() const noexcept { return starts_.empty(); }

  /// The line of retained entry i (sequence base_seq() + i), without its
  /// newline.  The view is invalidated by any change to the journal.
  [[nodiscard]] std::string_view record(std::size_t i) const;

  /// Decodes one record line: the inverse of the append_* encoders, and
  /// the decoder both parse() and replay use.  Cells are split, not read:
  /// parse() checks their form and replay reads them into their columns.
  [[nodiscard]] static Expected<JournalEntry> decode(std::string_view line);

  /// Sequence number of the first retained entry (0 until a truncation).
  [[nodiscard]] std::uint64_t base_seq() const noexcept { return base_seq_; }
  /// Sequence number the next appended entry will carry -- equivalently,
  /// the total number of entries ever appended.  Monotonic: truncation
  /// advances base_seq() but never rewinds this, so record-count
  /// thresholds (chaos crash points) stay meaningful across compaction.
  [[nodiscard]] std::uint64_t next_seq() const noexcept {
    return base_seq_ + starts_.size();
  }

  /// Drops every entry with sequence number < seq (compaction after a
  /// checkpoint captured the prefix's effects).  Clamped to
  /// [base_seq, next_seq]; the retained suffix keeps its numbering.
  void truncate_before(std::uint64_t seq);

  /// Byte length of serialize(): a journal-footprint metric.
  [[nodiscard]] std::size_t size_bytes() const noexcept;

  /// Line-oriented text serialization (one record per line, tab-separated,
  /// values escaped).  A truncated journal leads with a "#seq <base>"
  /// header line so sequence numbers survive the round-trip; untruncated
  /// journals serialize headerless, byte-compatible with older logs.
  /// Round-trips via parse().
  [[nodiscard]] std::string serialize() const;

  /// Parses a serialized journal.  Returns an error on malformed input.
  /// Each record is decoded and encoded again, so the parsed journal
  /// holds the canonical line for it.
  [[nodiscard]] static Expected<Journal> parse(const std::string& text);

 private:
  /// Opens a record: notes where its line starts, then writes its op and
  /// table fields.
  void begin_record(char op, std::string_view table);

  std::string text_;                ///< retained records, one line each
  std::vector<std::size_t> starts_;  ///< offset of each record's line
  std::uint64_t base_seq_ = 0;
};

}  // namespace sphinx::db
