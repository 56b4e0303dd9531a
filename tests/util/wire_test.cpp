// The wire helpers and the segment store's record checksum:
//
//   * checksum64 is pinned on three fixed inputs — a later edit that
//     changes it would orphan every store on disk, so it must fail here;
//   * every single-bit flip and any change confined to one 8-byte word of
//     an anchor-sized body is detected (each step of the hash is a
//     bijection, so this holds by construction, not by chance), and so is
//     every pair of flips drawn here, including the lane-aligned pairs
//     (the same bit in words i and i+4) that cancel in a plain
//     xor-multiply word hash;
//   * the byte length and a partial tail word are hashed;
//   * load_u64/store_u64/load_f64/store_f64 round-trip little-endian at
//     every misalignment (the unaligned one-load path runs under the
//     ASan+UBSan job).

#include "util/wire.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace coreda::util::wire {
namespace {

/// An anchor-sized body: 1,512 bytes, 189 words (a 25x8 Tea-making anchor
/// hashes 1,632 bytes).
constexpr std::size_t kAnchorBody = 1512;

std::vector<unsigned char> random_body(std::uint64_t seed) {
  std::vector<unsigned char> body(kAnchorBody);
  Rng rng(seed);
  for (std::size_t i = 0; i < body.size(); i += 8) store_u64(&body[i], rng());
  return body;
}

TEST(ChecksumTest, PinnedValues) {
  EXPECT_EQ(checksum64(nullptr, 0), 0x71136f9a8338d168ULL);
  unsigned char word[8];
  store_u64(word, 0x0123456789ABCDEFULL);
  EXPECT_EQ(checksum64(word, 8), 0xb60ed57f6ad4987cULL);
  std::vector<unsigned char> pattern(kAnchorBody);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<unsigned char>(i * 131 + 7);
  }
  EXPECT_EQ(checksum64(pattern.data(), pattern.size()),
            0x2a25a9130f3b6ed7ULL);
}

TEST(ChecksumTest, EveryChangeInsideOneWordIsDetected) {
  std::vector<unsigned char> body = random_body(11);
  const std::uint64_t clean = checksum64(body.data(), body.size());
  std::size_t undetected = 0, flips = 0;
  for (std::size_t bit = 0; bit < 8 * body.size(); ++bit) {
    body[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    if (checksum64(body.data(), body.size()) == clean) ++undetected;
    body[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    ++flips;
  }
  EXPECT_EQ(flips, 12096u);
  // Multi-bit changes confined to one word: random non-zero masks.
  Rng rng(12);
  for (std::size_t w = 0; w < body.size() / 8; ++w) {
    for (int k = 0; k < 16; ++k) {
      const std::uint64_t mask = rng() | 1;
      const std::uint64_t word = load_u64(&body[8 * w]);
      store_u64(&body[8 * w], word ^ mask);
      if (checksum64(body.data(), body.size()) == clean) ++undetected;
      store_u64(&body[8 * w], word);
    }
  }
  EXPECT_EQ(undetected, 0u);
  EXPECT_EQ(checksum64(body.data(), body.size()), clean);
}

TEST(ChecksumTest, RandomAndLaneAlignedBitPairsAreDetected) {
  std::vector<unsigned char> body = random_body(21);
  const std::uint64_t clean = checksum64(body.data(), body.size());
  const std::size_t bits = 8 * body.size();
  const auto flip = [&body](std::size_t bit) {
    body[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  };
  const auto pair_detected = [&](std::size_t a, std::size_t b) {
    flip(a);
    flip(b);
    const bool detected = checksum64(body.data(), body.size()) != clean;
    flip(a);
    flip(b);
    return detected;
  };
  std::size_t undetected = 0;
  Rng rng(22);
  for (int i = 0; i < 100'000; ++i) {
    const auto a = static_cast<std::size_t>(rng() % bits);
    std::size_t b = static_cast<std::size_t>(rng() % (bits - 1));
    if (b >= a) ++b;  // two distinct bits
    if (!pair_detected(a, b)) ++undetected;
  }
  // Words i and i+4 feed the same lane in consecutive rounds.
  std::size_t lane_pairs = 0;
  for (std::size_t w = 0; w + 4 < body.size() / 8; ++w) {
    for (std::size_t bit = 0; bit < 64; ++bit) {
      if (!pair_detected(64 * w + bit, 64 * (w + 4) + bit)) ++undetected;
      ++lane_pairs;
    }
  }
  EXPECT_EQ(lane_pairs, 185u * 64u);
  EXPECT_EQ(undetected, 0u);
}

TEST(ChecksumTest, LengthAndTailBytesAreHashed) {
  // Zero bytes throughout: only the length and the zero-padded tail word
  // tell these inputs apart.
  const std::vector<unsigned char> zeros(80, 0);
  std::set<std::uint64_t> seen;
  for (std::size_t n = 0; n <= zeros.size(); ++n) {
    seen.insert(checksum64(zeros.data(), n));
  }
  EXPECT_EQ(seen.size(), zeros.size() + 1);
  std::vector<unsigned char> odd = random_body(31);
  odd.resize(45);  // one lane block, a tail word, five tail bytes
  const std::uint64_t clean = checksum64(odd.data(), odd.size());
  for (std::size_t i = 40; i < odd.size(); ++i) {
    odd[i] ^= 0x80;
    EXPECT_NE(checksum64(odd.data(), odd.size()), clean) << "byte " << i;
    odd[i] ^= 0x80;
  }
}

TEST(WireTest, LoadsAndStoresAreLittleEndianAtEveryMisalignment) {
  const std::uint64_t value = 0x0102030405060708ULL;
  const double doubles[] = {-0.0,
                            1.0 / 3.0,
                            -1234.5e300,
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::infinity(),
                            std::bit_cast<double>(0x7FF8'0000'0000'1234ULL)};
  for (std::size_t mis = 0; mis < 8; ++mis) {
    alignas(8) unsigned char buf[24] = {};
    unsigned char* p = buf + mis;
    store_u64(p, value);
    for (std::size_t k = 0; k < 8; ++k) {
      EXPECT_EQ(p[k], static_cast<unsigned char>(value >> (8 * k)))
          << "misalignment " << mis << " byte " << k;
    }
    EXPECT_EQ(load_u64(p), value) << "misalignment " << mis;
    for (const double d : doubles) {
      store_f64(p, d);
      EXPECT_EQ(load_u64(p), std::bit_cast<std::uint64_t>(d));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(load_f64(p)),
                std::bit_cast<std::uint64_t>(d))
          << "misalignment " << mis;
    }
  }
}

}  // namespace
}  // namespace coreda::util::wire
