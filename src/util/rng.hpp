#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace coreda::util {

/// One SplitMix64 step from state `x`: add the golden gamma, then mix. The
/// one mixer behind Rng seeding, exec::trial_seed's per-trial streams, the
/// fault injector's decision hashes and the scenario digests.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic pseudo-random number generator (xoshiro256**).
///
/// Every stochastic component in CoReDA draws from an explicitly seeded Rng
/// so that experiments are reproducible bit-for-bit. The generator satisfies
/// the C++ UniformRandomBitGenerator concept and additionally offers the
/// distribution helpers the simulators need (uniform, normal, bernoulli,
/// exponential, pick).
///
/// The draw methods on the closed-loop serving hot path (raw output,
/// uniform, bernoulli, normal) are defined inline: the sensor synthesis
/// stack calls them tens of millions of times per simulated fleet session
/// and the cross-TU call overhead dominates otherwise.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit lanes from a single seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit output.
  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    // 53 random mantissa bits -> double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0, 1]).
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// A standard normal deviate drawn but not yet finished: one member `w`
  /// of a Marsaglia polar pair (u for the pair's first deviate, v for the
  /// cached second) and the pair's s = u² + v² in (0, 1). The deviate is
  /// w · sqrt(-2 ln s / s); since w² <= s, its magnitude is at most
  /// sqrt(-2 ln s), so a caller can bound it without any log or sqrt.
  struct PolarDraw {
    double w;
    double s;
    double factor;  ///< sqrt(-2 ln s / s) when already known, else 0
    bool second;    ///< the pair's cached second deviate
  };

  /// Draws the next normal deviate unfinished, consuming exactly the raw
  /// outputs and cache state that normal() would.
  PolarDraw draw_normal() noexcept {
    if (has_cached_normal_) {
      has_cached_normal_ = false;
      return {cached_v_, cached_s_, cached_factor_, true};
    }
    // Marsaglia polar method.
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    cached_v_ = v;
    cached_s_ = s;
    cached_factor_ = 0.0;
    has_cached_normal_ = true;
    return {u, s, 0.0, false};
  }

  /// The value normal(mean, stddev) would have returned for `draw`. The
  /// polar factor is computed once per pair: finishing a first deviate
  /// hands it to the still-cached second.
  double finish_normal(const PolarDraw& draw, double mean,
                       double stddev) noexcept {
    double factor = draw.factor;
    if (factor == 0.0) {
      factor = std::sqrt(-2.0 * std::log(draw.s) / draw.s);
      // Equal s means equal factor, so this never hands over a wrong one.
      if (has_cached_normal_ && cached_s_ == draw.s) cached_factor_ = factor;
    }
    // The two association orders are part of the stream's bit pattern.
    return draw.second ? mean + stddev * (draw.w * factor)
                       : mean + stddev * draw.w * factor;
  }

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept {
    return finish_normal(draw_normal(), mean, stddev);
  }

  /// Exponential deviate with the given mean (mean = 1 / rate).
  double exponential(double mean) noexcept;

  /// Uniformly picks an index in [0, size). Requires size > 0.
  std::size_t pick_index(std::size_t size) noexcept;

  /// Picks an index with probability proportional to weights[i].
  /// Requires a non-empty weight vector with a positive sum.
  std::size_t pick_weighted(const std::vector<double>& weights) noexcept;

  /// Derives an independent child generator (for per-component streams).
  Rng fork() noexcept;

  /// The generator's complete state, polar cache included, as plain data
  /// for kernels that advance several streams side by side
  /// (sensors::settle_idle_windows gathers eight into SIMD lanes).
  /// set_raw(raw()) changes nothing; a generator given another's Raw
  /// continues that stream draw for draw.
  struct Raw {
    std::array<std::uint64_t, 4> state;
    double cached_v;
    double cached_s;
    double cached_factor;
    bool has_cached_normal;
  };

  Raw raw() const noexcept {
    return {state_, cached_v_, cached_s_, cached_factor_,
            has_cached_normal_};
  }

  void set_raw(const Raw& raw) noexcept {
    state_ = raw.state;
    cached_v_ = raw.cached_v;
    cached_s_ = raw.cached_s;
    cached_factor_ = raw.cached_factor;
    has_cached_normal_ = raw.has_cached_normal;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
  // The polar pair's second deviate, kept unfinished as (v, s).
  double cached_v_ = 0.0;
  double cached_s_ = 0.0;
  double cached_factor_ = 0.0;  ///< 0 until some finish computes it
  bool has_cached_normal_ = false;
};

}  // namespace coreda::util
