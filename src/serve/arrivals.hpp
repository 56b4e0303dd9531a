#pragma once

#include <cstdint>
#include <vector>

#include "exec/trial_runner.hpp"
#include "util/rng.hpp"

namespace coreda::serve {

/// Seed-deterministic session-arrival generators for the serve/fleet
/// benches. Both draw user indices in [0, n): Uniform models a fleet where
/// every patient is equally active; Zipfian models the clinically realistic
/// skew — a small set of heavy users (low indices) generates most sessions,
/// so slot residency and mmap page cache both get to shine (or be caught
/// regressing) under the traffic shape they were built for.
///
/// Determinism: the sequence is a pure function of (n, exponent, seed).
/// The benches print hit rates derived from these streams, so the streams
/// must never depend on wall clock or thread interleaving.
class UniformArrivals {
 public:
  UniformArrivals(std::size_t n, std::uint64_t seed)
      : n_(n), rng_(seed) {}

  std::size_t next() noexcept { return rng_.pick_index(n_); }

 private:
  std::size_t n_;
  util::Rng rng_;
};

/// Zipf(s) over ranks 1..n mapped to user indices 0..n-1 (index 0 is the
/// hottest user). Sampling is one uniform draw + a binary search over the
/// precomputed CDF: O(log n) per arrival, no allocation after construction.
///
/// Construction computes the n terms 1/(i+1)^s in chunks of kTermChunk, one
/// runner trial per chunk (a one-chunk table builds inline), then sums and
/// normalises them serially: the table has the same bytes at any job count.
class ZipfianArrivals {
 public:
  /// Terms per construction trial.
  static constexpr std::size_t kTermChunk = std::size_t{1} << 16;

  /// Builds the table on ThreadPool::hardware_workers() jobs. Throws
  /// std::invalid_argument when n == 0 or exponent <= 0.
  ZipfianArrivals(std::size_t n, double exponent, std::uint64_t seed);
  /// Builds the table on the caller's runner.
  ZipfianArrivals(std::size_t n, double exponent, std::uint64_t seed,
                  exec::TrialRunner& runner);

  std::size_t next() noexcept;

  double exponent() const noexcept { return exponent_; }

 private:
  void build_cdf(std::size_t n, exec::TrialRunner& runner);

  double exponent_;
  util::Rng rng_;
  std::vector<double> cdf_;  ///< cdf_[i] = P(index <= i), cdf_.back() == 1
};

}  // namespace coreda::serve
