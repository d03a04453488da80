#pragma once
/// \file encoding.hpp
/// Shared text codec for the db persistence formats.
///
/// The journal and the checkpoint snapshot serialize through the same
/// line-oriented building blocks: backslash-escaped fields, tagged
/// "type:payload" cells, and "name=type[!]" column specs.  One codec
/// for both formats guarantees they can never drift apart -- a snapshot
/// restored and re-journaled must reproduce the exact bytes the journal
/// would have written for the same cells.  Encoders append to a caller's
/// buffer, so a record is written in place; readers take views of it and
/// refuse any field that is not entirely what its encoder writes.
///
/// The encoders are on every journaled write's path, so the two that
/// dominate are cheap: append_field finds the bytes it escapes 16 at a
/// time and copies each clean run between them in one append, and
/// append_real writes its digits through the shared 17-digit writer
/// (common/g17.hpp).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace sphinx::db {

/// The persisted type of a column: the "type" of its "name=type" spec and
/// the tag of its cells ("i:", "r:", "s:", "b:").
enum class CellType { kInt, kReal, kText, kBool };

/// One persisted column spec.  `indexed` marks a column that carries a
/// hash index: the flag is part of the schema, so images carry it and
/// recovery compares it like the name and type.
struct Column {
  std::string name;
  CellType type = CellType::kInt;
  bool indexed = false;

  friend bool operator==(const Column&, const Column&) = default;
};

/// Appends `s` with tabs, newlines and backslashes escaped, so records
/// stay line-oriented.  The scan for those bytes tests 16-byte blocks
/// (SSE2) and never reads past `s`; the text between two of them is
/// appended in one piece.
void append_field(std::string& out, std::string_view s);
[[nodiscard]] Expected<std::string> unescape_field(std::string_view s);

/// Appends the decimal digits of `v`.
void append_u64(std::string& out, std::uint64_t v);

/// Cell writers: "i:<n>", "r:<17 significant digits>" (write_g17's text,
/// so the bit pattern round-trips), "s:<escaped text>" and "b:0"/"b:1".
void append_int(std::string& out, std::int64_t v);
void append_real(std::string& out, double v);
void append_text(std::string& out, std::string_view v);
void append_bool(std::string& out, bool v);

/// Cell readers, the inverses of the writers: each refuses (false) a
/// field with another tag, and a payload that is not all of the field --
/// a number with a sign other than '-', blanks, a junk suffix or hex
/// digits, a bool other than "0" or "1", or a bad escape.
[[nodiscard]] bool read_int(std::string_view field, std::int64_t& out) noexcept;
[[nodiscard]] bool read_real(std::string_view field, double& out) noexcept;
[[nodiscard]] bool read_text(std::string_view field, std::string& out);
[[nodiscard]] bool read_bool(std::string_view field, bool& out) noexcept;

/// Appends the canonical form of a cell whose column is unknown (a
/// journal parsed without its tables), or refuses one no writer could
/// have produced.  "n:" (a null) is well-formed text, though no column
/// holds one: replay refuses it against its column.
[[nodiscard]] StatusOrError append_canonical_cell(std::string& out,
                                                  std::string_view field);

/// Column spec "name=type", with a trailing '!' marking an indexed
/// column.  Decoding refuses an index on a real column: index lookup is
/// equality, which a NaN cell never satisfies.
void append_column(std::string& out, const Column& column);
[[nodiscard]] Expected<Column> decode_column(std::string_view spec);

/// Pops the first line off `rest` and returns it without its '\n' (the
/// last line may lack one).
[[nodiscard]] std::string_view take_line(std::string_view& rest) noexcept;

/// The tab-separated fields of one line, as views into it.  A field never
/// holds a raw tab: append_field escapes them.
[[nodiscard]] std::vector<std::string_view> split_fields(std::string_view line);

}  // namespace sphinx::db
