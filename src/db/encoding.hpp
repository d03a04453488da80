#pragma once
/// \file encoding.hpp
/// Shared text codec for the db persistence formats.
///
/// The journal and the checkpoint snapshot serialize through the same
/// line-oriented building blocks: backslash-escaped fields, tagged
/// "type:payload" values, and "name=type[!]" column specs.  One codec
/// for both formats guarantees they can never drift apart -- a snapshot
/// restored and re-journaled must reproduce the exact bytes the journal
/// would have written for the same cells.  Encoders append to a caller's
/// buffer, so a record is written in place; decoders read views of it and
/// refuse any field that is not entirely what its encoder writes.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "db/table.hpp"
#include "db/value.hpp"

namespace sphinx::db {

/// Appends `s` with tabs, newlines and backslashes escaped, so records
/// stay line-oriented.
void append_field(std::string& out, std::string_view s);
[[nodiscard]] Expected<std::string> unescape_field(std::string_view s);

/// Appends the decimal digits of `v`.
void append_u64(std::string& out, std::uint64_t v);

/// Appends a value as "type:payload" (reals as %.17g, so the bit pattern
/// round-trips).  Inverse of decode_value.
void append_value(std::string& out, const Value& v);
/// Reads a value back.  The payload must be all of the field: an int or
/// real with a sign other than '-', blanks, a junk suffix or hex digits is
/// refused, a bool is exactly "0" or "1", and a null is empty.
[[nodiscard]] Expected<Value> decode_value(std::string_view s);

/// Column spec "name=type", with a trailing '!' marking an indexed
/// column (the index set is part of the persisted schema).  Decoding
/// refuses an index on a column type that cannot carry one (indexable()).
void append_column(std::string& out, const Column& column);
[[nodiscard]] Expected<Column> decode_column(std::string_view spec);

/// Pops the first line off `rest` and returns it without its '\n' (the
/// last line may lack one).
[[nodiscard]] std::string_view take_line(std::string_view& rest) noexcept;

/// The tab-separated fields of one line, as views into it.  A field never
/// holds a raw tab: append_field escapes them.
[[nodiscard]] std::vector<std::string_view> split_fields(std::string_view line);

}  // namespace sphinx::db
