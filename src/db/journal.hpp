#pragma once
/// \file journal.hpp
/// Append-only operation log for crash recovery.
///
/// Every committed mutation on every table of a Database is appended here.
/// A fresh Database replaying the journal reaches the exact pre-crash
/// state -- this is the mechanism behind the paper's claim that SPHINX is
/// "easily recoverable from internal component failures" (section 3.1).
/// The log has a text serialization so it can be persisted and reloaded.
///
/// Entries carry monotonic sequence numbers: the i-th retained entry has
/// sequence base_seq() + i, and truncate_before() compacts a prefix (after
/// a checkpoint captured its effects) without renumbering the suffix.  A
/// checkpoint image recording sequence S therefore pairs with exactly the
/// entries whose sequence is >= S, whether or not the prefix was already
/// dropped -- recovery after a crash between snapshot publication and
/// truncation simply completes the truncation.

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "db/table.hpp"

namespace sphinx::db {

/// One journal record.
struct JournalEntry {
  enum class Op { kCreateTable, kInsert, kUpdate, kErase };

  Op op = Op::kInsert;
  std::string table;
  RowId row = kInvalidRow;
  std::size_t column = 0;            ///< kUpdate only
  std::vector<Value> cells;          ///< kInsert: full row; kUpdate: [value]
  std::vector<Column> schema;        ///< kCreateTable only
};

/// The append-only log.
class Journal {
 public:
  void append(JournalEntry entry) { entries_.push_back(std::move(entry)); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] const std::vector<JournalEntry>& entries() const noexcept {
    return entries_;
  }

  /// Sequence number of the first retained entry (0 until a truncation).
  [[nodiscard]] std::uint64_t base_seq() const noexcept { return base_seq_; }
  /// Sequence number the next appended entry will carry -- equivalently,
  /// the total number of entries ever appended.  Monotonic: truncation
  /// advances base_seq() but never rewinds this, so record-count
  /// thresholds (chaos crash points, checkpoint policy) stay meaningful
  /// across compaction.
  [[nodiscard]] std::uint64_t next_seq() const noexcept {
    return base_seq_ + entries_.size();
  }

  /// Drops every entry with sequence number < seq (compaction after a
  /// checkpoint captured the prefix's effects).  Clamped to
  /// [base_seq, next_seq]; the retained suffix keeps its numbering.
  void truncate_before(std::uint64_t seq);

  /// Replaces this journal's contents with the entries of `src` whose
  /// sequence number is >= from_seq, preserving their numbering.  Used by
  /// recovery to carry the crashed journal (or its post-checkpoint
  /// suffix) into the rebuilt database byte-for-byte.
  void adopt_suffix(const Journal& src, std::uint64_t from_seq);

  /// Exact byte length of serialize(), computed without building the
  /// string -- lets serialize() pre-size its buffer and gives callers a
  /// journal-footprint metric that costs no allocator churn.
  [[nodiscard]] std::size_t size_bytes() const noexcept;

  /// Line-oriented text serialization (one record per line, tab-separated,
  /// values escaped).  A truncated journal leads with a "#seq <base>"
  /// header line so sequence numbers survive the round-trip; untruncated
  /// journals serialize headerless, byte-compatible with older logs.
  /// Round-trips via parse().
  [[nodiscard]] std::string serialize() const;

  /// Parses a serialized journal.  Returns an error on malformed input.
  [[nodiscard]] static Expected<Journal> parse(const std::string& text);

 private:
  std::vector<JournalEntry> entries_;
  std::uint64_t base_seq_ = 0;
};

}  // namespace sphinx::db
