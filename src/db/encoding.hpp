#pragma once
/// \file encoding.hpp
/// Shared text codec for the db persistence formats.
///
/// The journal and the checkpoint snapshot serialize through the same
/// line-oriented building blocks: backslash-escaped fields, tagged
/// "type:payload" values, and "name=type[!]" column specs.  One codec
/// for both formats guarantees they can never drift apart -- a snapshot
/// restored and re-journaled must reproduce the exact bytes the journal
/// would have written for the same cells.

#include <string>

#include "common/error.hpp"
#include "db/table.hpp"
#include "db/value.hpp"

namespace sphinx::db {

/// Escapes tabs/newlines/backslashes so records stay line-oriented.
[[nodiscard]] std::string escape_field(const std::string& s);
/// Length escape_field(s) would have, without building the string.
[[nodiscard]] std::size_t escaped_size(const std::string& s) noexcept;
[[nodiscard]] Expected<std::string> unescape_field(const std::string& s);

/// Serializes a value as "type:payload" (reals at precision 17, so the
/// bit pattern round-trips).  Inverse of decode_value.
[[nodiscard]] std::string encode_value(const Value& v);
[[nodiscard]] Expected<Value> decode_value(const std::string& s);

/// Column spec "name=type", with a trailing '!' marking an indexed
/// column (the index set is part of the persisted schema).  Decoding
/// refuses an index on a column type that cannot carry one (indexable()).
[[nodiscard]] std::string encode_column(const Column& column);
[[nodiscard]] Expected<Column> decode_column(const std::string& spec);

[[nodiscard]] Expected<ValueType> decode_type(const std::string& s);

}  // namespace sphinx::db
