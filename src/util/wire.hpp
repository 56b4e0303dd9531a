#pragma once

// Little-endian wire helpers + the record checksum of the fleet tier's
// segment store (records and store.meta). One definition keeps the byte-
// level conventions — integers little-endian u64, doubles as LE IEEE-754
// bit patterns — in one place instead of several anonymous namespaces
// drifting apart. The segment store is the only durable policy format, so
// this is the only record checksum.

#include <bit>
#include <cstdint>
#include <cstring>

namespace coreda::util::wire {

inline void store_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

inline std::uint64_t load_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    // One unaligned load; GCC compiles the byte loop below into eight byte
    // loads plus shifts, which dominated every checksum pass.
    std::memcpy(&v, p, 8);
  } else {
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
  }
  return v;
}

inline void store_f64(unsigned char* p, double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, 8);
  store_u64(p, bits);
}

inline double load_f64(const unsigned char* p) {
  const std::uint64_t bits = load_u64(p);
  double d;
  std::memcpy(&d, &bits, 8);
  return d;
}

namespace detail {

// xxHash64's primes.
inline constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
inline constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

/// A bijection in `acc` for fixed `w` and in `w` for fixed `acc` (an odd
/// multiply, an add and a rotate are each invertible mod 2^64).
inline std::uint64_t xx_round(std::uint64_t acc, std::uint64_t w) {
  return std::rotl(acc + w * kP2, 31) * kP1;
}

}  // namespace detail

/// The store's 64-bit record checksum: little-endian u64 words over four
/// independent lanes (word i feeds lane i % 4), folded into one
/// accumulator after the byte length, then any tail words and a zero-
/// padded tail word through the same round, then an xorshift-multiply
/// avalanche. Every step is a bijection of the running state, so a change
/// confined to one 8-byte word of `data` always changes the result — a
/// proof, not a probability. Four lanes keep four multiply chains in
/// flight instead of FNV-1a's one multiply per byte.
inline std::uint64_t checksum64(const unsigned char* data, std::size_t n) {
  using detail::kP1;
  using detail::kP2;
  using detail::kP3;
  using detail::kP5;
  using detail::xx_round;
  std::uint64_t lane[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    lane[0] = xx_round(lane[0], load_u64(data + i));
    lane[1] = xx_round(lane[1], load_u64(data + i + 8));
    lane[2] = xx_round(lane[2], load_u64(data + i + 16));
    lane[3] = xx_round(lane[3], load_u64(data + i + 24));
  }
  std::uint64_t h = xx_round(kP5, n);
  for (const std::uint64_t l : lane) h = xx_round(h, l);
  for (; i + 8 <= n; i += 8) h = xx_round(h, load_u64(data + i));
  if (i < n) {
    unsigned char tail[8] = {};
    std::memcpy(tail, data + i, n - i);
    h = xx_round(h, load_u64(tail));
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

}  // namespace coreda::util::wire
