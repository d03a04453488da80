#include "common/g17.hpp"

#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace sphinx {
namespace {

__extension__ using Uint128 = unsigned __int128;

constexpr std::uint64_t kTen16 = 10'000'000'000'000'000ull;
constexpr std::uint64_t kTen17 = 100'000'000'000'000'000ull;

/// 5^q for q in [0, 23], every scale the fast path can ask for: each is
/// below 2^54, so a 53-bit significand times one fits in 107 bits.
constexpr auto kPow5 = [] {
  std::array<std::uint64_t, 24> pow{};
  pow[0] = 1;
  for (std::size_t q = 1; q < pow.size(); ++q) pow[q] = pow[q - 1] * 5;
  return pow;
}();

/// 10^k for k in [0, 4], the divisors of a value of 1e17 or more.
constexpr std::array<std::uint64_t, 5> kPow10 = {1, 10, 100, 1000, 10000};

/// A value's first 17 significant digits, rounded: `digits` is in
/// [1e16, 1e17), and the value is about digits * 10^(exp10 - 16).
struct Significand {
  std::uint64_t digits;
  int exp10;
};

/// The 17 digits of m * 2^e, a finite normal value in [1e-6, 2^64)
/// (m its 53-bit significand), rounded half to even from the exact
/// value.
Significand round17(std::uint64_t m, int e) noexcept {
  // floor(e2 * log10(2)) for the value's binary exponent e2: the decimal
  // exponent is it or one more, and the loop settles which.
  int exp10 = ((e + 52) * 78913) >> 18;
  for (;;) {
    // The value times 10^scale, split into its whole part and a remainder
    // over `den`; the whole part has 17 digits exactly when exp10 is right.
    const int scale = 16 - exp10;
    Uint128 whole = 0;
    Uint128 rem = 0;
    Uint128 den = 1;
    if (scale >= 0) {
      const Uint128 product =
          static_cast<Uint128>(m) * kPow5[static_cast<std::size_t>(scale)];
      if (const int shift = e + scale; shift >= 0) {
        whole = product << shift;
      } else {
        den = static_cast<Uint128>(1) << -shift;
        whole = product >> -shift;
        rem = product & (den - 1);
      }
    } else {
      // At 1e17 and above the value is an integer below 2^64.
      const std::uint64_t value = m << e;
      den = kPow10[static_cast<std::size_t>(-scale)];
      whole = value / den;
      rem = value % den;
    }
    if (whole >= kTen17) {
      ++exp10;
      continue;
    }
    if (whole < kTen16) {
      --exp10;
      continue;
    }
    auto digits = static_cast<std::uint64_t>(whole);
    if (rem * 2 > den || (rem * 2 == den && (digits & 1) != 0)) ++digits;
    if (digits == kTen17) return {kTen16, exp10 + 1};
    return {digits, exp10};
  }
}

/// Writes 17 rounded digits as "%.17g" lays them out: positional for a
/// decimal exponent in [-4, 17), scientific otherwise, trailing
/// fraction zeros and a bare point dropped.
char* lay_out(char* out, Significand s) noexcept {
  char digits[17];
  std::to_chars(digits, digits + 17, s.digits);
  std::size_t kept = 17;
  while (digits[kept - 1] == '0') --kept;
  const int x = s.exp10;
  if (x >= -4 && x < 17) {
    if (x < 0) {
      *out++ = '0';
      *out++ = '.';
      for (int i = -1; i > x; --i) *out++ = '0';
      std::memcpy(out, digits, kept);
      return out + kept;
    }
    const auto whole = static_cast<std::size_t>(x) + 1;
    std::memcpy(out, digits, whole);
    out += whole;
    if (kept > whole) {
      *out++ = '.';
      std::memcpy(out, digits + whole, kept - whole);
      out += kept - whole;
    }
    return out;
  }
  *out++ = digits[0];
  if (kept > 1) {
    *out++ = '.';
    std::memcpy(out, digits + 1, kept - 1);
    out += kept - 1;
  }
  *out++ = 'e';
  *out++ = x < 0 ? '-' : '+';
  const int magnitude = x < 0 ? -x : x;
  if (magnitude < 10) *out++ = '0';
  return std::to_chars(out, out + 3, magnitude).ptr;
}

}  // namespace

char* write_g17(char* out, double v) noexcept {
  const double magnitude = std::fabs(v);
  if (magnitude < 1e17) {
    const auto whole = static_cast<std::int64_t>(v);
    if (whole != 0 && static_cast<double>(whole) == v) {
      return std::to_chars(out, out + kG17Chars, whole).ptr;
    }
  }
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const auto biased = static_cast<int>(bits >> 52 & 0x7ff);
  if (biased != 0 && magnitude >= 1e-6 && magnitude < 0x1p64) {
    if (v < 0) *out++ = '-';
    const std::uint64_t m = (bits & ((1ull << 52) - 1)) | (1ull << 52);
    return lay_out(out, round17(m, biased - 1075));
  }
  return std::to_chars(out, out + kG17Chars, v, std::chars_format::general,
                       17)
      .ptr;
}

void append_g17(std::string& out, double v) {
  char text[kG17Chars];
  out.append(text, write_g17(text, v));
}

}  // namespace sphinx
