// The 17-digit double writer (common/g17.hpp) against its definition:
// std::to_chars(v, std::chars_format::general, 17), printf's "%.17g".
// Every persisted and wire double goes through it, so one differing
// byte would move every journal, image, wire payload and digest.

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>

#include "common/g17.hpp"
#include "common/rng.hpp"

namespace sphinx {
namespace {

/// The definition's text for `v`.
std::string reference_g17(double v) {
  char text[64];
  return std::string(
      text,
      std::to_chars(text, text + sizeof text, v, std::chars_format::general, 17)
          .ptr);
}

/// Counts the values whose text differs from the definition's, and
/// reports the first few.
class Differential {
 public:
  void check(double v) {
    ++checked_;
    char text[kG17Chars];
    const std::string_view got(text,
                               static_cast<std::size_t>(write_g17(text, v) -
                                                        text));
    const std::string want = reference_g17(v);
    if (got != want && differing_++ < 5) {
      ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v)
                    << std::dec << ": wrote " << got << ", to_chars " << want;
    }
  }
  /// `v` and the `ulps` doubles on each side of it.
  void check_around(double v, int ulps) {
    double up = v;
    double down = v;
    check(v);
    for (int i = 0; i < ulps; ++i) {
      up = std::nextafter(up, std::numeric_limits<double>::infinity());
      down = std::nextafter(down, -std::numeric_limits<double>::infinity());
      check(up);
      check(down);
    }
  }
  [[nodiscard]] std::size_t checked() const { return checked_; }
  [[nodiscard]] std::size_t differing() const { return differing_; }

 private:
  std::size_t checked_ = 0;
  std::size_t differing_ = 0;
};

TEST(G17Writer, MatchesToCharsOnRandomBitPatterns) {
  Rng rng(20050404);
  Differential diff;
  for (int i = 0; i < 1'000'000; ++i) {
    const auto hi = static_cast<std::uint64_t>(rng.uniform_int(0, 0xffffffff));
    const auto lo = static_cast<std::uint64_t>(rng.uniform_int(0, 0xffffffff));
    diff.check(std::bit_cast<double>(hi << 32 | lo));
  }
  // Random bit patterns are mostly huge or tiny: the short paths need
  // values in [1e-6, 2^64) of both signs, fractional and integral.
  for (int i = 0; i < 200'000; ++i) {
    const double magnitude =
        std::ldexp(1.0 + static_cast<double>(rng.uniform_int(0, 1 << 30)) /
                             static_cast<double>(1 << 30),
                   static_cast<int>(rng.uniform_int(-20, 63)));
    diff.check(rng.chance(0.5) ? magnitude : -magnitude);
    diff.check(std::trunc(magnitude));
  }
  EXPECT_EQ(diff.differing(), 0u);
  EXPECT_GE(diff.checked(), 1'000'000u);
}

TEST(G17Writer, MatchesToCharsAroundEveryPowerOfTen) {
  // 1e-320 is subnormal, 1e308 near the top of the range: each power,
  // as the nearest double, and 50 ulps either side.
  Differential diff;
  for (int exp10 = -320; exp10 <= 308; ++exp10) {
    // strtod, not stod: stod refuses the subnormal powers.
    const double power =
        std::strtod(("1e" + std::to_string(exp10)).c_str(), nullptr);
    diff.check_around(power, 50);
    diff.check_around(-power, 50);
  }
  EXPECT_EQ(diff.differing(), 0u);
}

TEST(G17Writer, MatchesToCharsAroundIntegerEdges) {
  // Where exact integers end (2^53), where they stop fitting 17 digits
  // (1e16, 1e17) and where the 64-bit product path ends (2^64).
  Differential diff;
  for (const double edge : {0x1p53, 1e16, 1e17, 0x1p64}) {
    diff.check_around(edge, 2000);
    diff.check_around(-edge, 2000);
    for (int k = -1000; k <= 1000; ++k) diff.check(edge + k);
  }
  EXPECT_EQ(diff.differing(), 0u);
}

TEST(G17Writer, MatchesToCharsOnSeventeenDigitRounding) {
  Rng rng(1979);
  Differential diff;
  // Integral doubles in [1e17, 2^64): 18 to 20 digits, rounded to 17.
  for (int i = 0; i < 200'000; ++i) {
    const double v = std::ldexp(
        static_cast<double>(rng.uniform_int(1LL << 52, (1LL << 53) - 1)),
        static_cast<int>(rng.uniform_int(4, 11)));
    if (v >= 1e17 && v < 0x1p64) diff.check(v);
  }
  // Exact ties: n + 1/4 with 16-digit n, and n + k/8 with 15-digit n,
  // are exactly 18 digits ending in 5.  Half to even keeps n.2 and
  // n.12, where rounding half up would write n.3 and n.13.
  std::size_t ties = 0;
  for (int i = 0; i < 100'000; ++i) {
    const auto n16 =
        static_cast<double>(rng.uniform_int(1'000'000'000'000'000LL,
                                            2'251'799'813'685'247LL));
    const auto n15 = static_cast<double>(
        rng.uniform_int(100'000'000'000'000LL, 999'999'999'999'999LL));
    for (const double v : {n16 + 0.25, n16 + 0.75, n15 + 0.125, n15 + 0.375,
                           n15 + 0.625, n15 + 0.875}) {
      diff.check(v);
      diff.check(-v);
      ties += 2;
    }
  }
  EXPECT_EQ(diff.differing(), 0u);
  EXPECT_GE(ties, 1'000'000u);
}

TEST(G17Writer, MatchesToCharsOnZerosSubnormalsInfinitiesAndNaN) {
  Differential diff;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double v :
       {0.0, -0.0, kInf, -kInf, std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(), 1e-6, 0.1, 0.5, 1.0, 60.0,
        1.0 / 3.0, 2.0 / 3.0, 123456.789}) {
    diff.check(v);
    diff.check_around(v, 3);
  }
  Rng rng(7);
  for (int i = 0; i < 100'000; ++i) {
    const auto mantissa =
        static_cast<std::uint64_t>(rng.uniform_int(1, (1LL << 52) - 1));
    diff.check(std::bit_cast<double>(mantissa));
    diff.check(-std::bit_cast<double>(mantissa));
  }
  EXPECT_EQ(diff.differing(), 0u);
}

TEST(G17Writer, AppendsAfterWhatTheBufferHolds) {
  std::string out = "r:";
  append_g17(out, 0.1);
  append_g17(out, -250.0);
  EXPECT_EQ(out, "r:0.10000000000000001-250");
}

}  // namespace
}  // namespace sphinx
