#pragma once
/// \file hash.hpp
/// FNV-1a 64, the one byte-string hash behind stream seeds
/// (SeedTree::seed_for), retry jitter (rpc/clarens.cpp) and the chaos
/// campaign digests.  Every use depends on its exact values: changing it
/// moves every seeded run.  Also the transparent string hash that lets a
/// table keyed by std::string be probed with a std::string_view.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>

namespace sphinx {

/// FNV-1a 64's offset basis: the state of a fresh hash.
inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ull;

/// FNV-1a 64 over `bytes`, continuing from `seed` (kFnv1aOffset starts a
/// fresh hash; a previous digest chains onto it).
[[nodiscard]] constexpr std::uint64_t fnv1a(
    std::string_view bytes, std::uint64_t seed = kFnv1aOffset) noexcept {
  std::uint64_t h = seed;
  for (const char c : bytes) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ull;
  }
  return h;
}

/// std::hash over a string's text, transparent: with std::equal_to<> it
/// lets an unordered container keyed by std::string find a
/// std::string_view without building a string.
struct StringHash {
  using is_transparent = void;
  [[nodiscard]] std::size_t operator()(std::string_view text) const noexcept {
    return std::hash<std::string_view>{}(text);
  }
};

}  // namespace sphinx
