#pragma once
/// \file g17.hpp
/// The one writer of doubles as 17 significant digits, the text every
/// persisted or wire double is: journal and image cells (db::append_real),
/// XML-RPC `<double>` values (rpc::XrWriter) and the server's speculation
/// cursor.  Seventeen digits make the bit pattern round-trip.
///
/// The output is exactly what std::to_chars(first, last, v,
/// std::chars_format::general, 17) writes, which is printf's "%.17g".
/// The common values take short paths: an integral value below 1e17 is
/// its integer digits, and a finite normal value in [1e-6, 2^64) is
/// rounded half to even from the exact product of its significand and a
/// power of ten, held in 128 bits.  Everything else -- zero, subnormals,
/// tiny or huge values, infinities and NaN -- goes through std::to_chars.

#include <cstddef>
#include <string>

namespace sphinx {

/// Room write_g17 needs: a sign, 17 digits, a point, "e-308", rounded up.
inline constexpr std::size_t kG17Chars = 32;

/// Writes `v` into [out, out + kG17Chars) and returns the end of the text.
char* write_g17(char* out, double v) noexcept;

/// Appends write_g17's text for `v` to `out`.
void append_g17(std::string& out, double v);

}  // namespace sphinx
