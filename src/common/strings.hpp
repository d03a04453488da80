#pragma once
/// \file strings.hpp
/// Small string helpers shared by the journal and snapshot codecs, the
/// scheduling algorithms' saved state, and reports.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sphinx {

/// Splits `s` on `sep`, keeping empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Parses all of `s` as an unsigned decimal.  Returns false, leaving
/// `out` untouched, on anything else: empty, a sign, trailing bytes, or a
/// value past 64 bits -- so a caller may ignore the result to keep a
/// default.
bool parse_u64(std::string_view s, std::uint64_t& out) noexcept;

/// Strips ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Formats a double with `digits` fraction digits (no trailing cleanup).
[[nodiscard]] std::string format_double(double v, int digits = 2);

/// Formats a duration in seconds as "1h 02m 03s" / "42s".
[[nodiscard]] std::string format_duration(double seconds);

}  // namespace sphinx
