// bits_digest.hpp — bit-exact comparisons for the tests: 64-bit FNV-1a
// digests of output bits (the form the golden pins are recorded in) and
// bit-pattern equality.  Both see every bit of a double, sign of zero
// and NaN payload included, so a change that moves any output by one
// ulp fails them.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace dpbyz::testing_support {

inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

inline uint64_t fnv1a_byte(uint64_t h, uint64_t byte) {
  h ^= byte & 0xffu;
  return h * 0x100000001b3ULL;
}

/// FNV-1a over the little-endian bytes of each double's bit pattern,
/// continuing from `h`.
inline uint64_t bits_digest(std::span<const double> v, uint64_t h = kFnvOffset) {
  for (const double x : v) {
    const uint64_t bits = std::bit_cast<uint64_t>(x);
    for (int k = 0; k < 8; ++k) h = fnv1a_byte(h, bits >> (8 * k));
  }
  return h;
}

/// Bit-pattern equality: tells -0.0 from 0.0 and compares NaNs by payload.
inline bool same_bits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

inline bool same_bits(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i], b[i])) return false;
  return true;
}

/// FNV-1a over the characters of `text`, continuing from `h`.
inline uint64_t text_digest(std::string_view text, uint64_t h = kFnvOffset) {
  for (const unsigned char c : text) h = fnv1a_byte(h, c);
  return h;
}

}  // namespace dpbyz::testing_support
