#pragma once

#include <cstddef>
#include <cstdint>

#include "util/rng.hpp"

namespace coreda::sensors {

/// Idle accelerometer windows settled eight RNG streams at a time.
///
/// An idle window is one whose activations are all ±0. For it,
/// AccelerometerModel::sample_hits takes, per sample, one bump draw, θ, φ
/// and three polar normals, and settles the sample as a non-hit when no
/// bump was drawn and every deviate's s clears the idle cutoff s_min. The
/// lanes replay exactly those draws for up to kIdleLanes windows side by
/// side (xoshiro256** and the polar rejection loop in AVX-512 lanes), so a
/// window whose every sample settles needs no scalar work at all.
inline constexpr std::size_t kIdleLanes = 8;

/// One idle window's stream and model parameters.
struct IdleLane {
  util::Rng* rng;
  double bump_probability;  ///< AccelerometerModel::Params::bump_probability
  double s_min;             ///< the model's idle cutoff at the node threshold
};

/// Whether settle_idle_windows can settle anything: the CPU has AVX-512F
/// and AVX-512DQ and COREDA_LANE_SIMD is not "0". Decided once per process.
bool idle_lanes_enabled() noexcept;

/// Replays `count` idle samples of AccelerometerModel::sample_hits on each
/// of lanes[0..n), n <= kIdleLanes, and returns the mask of settled lanes
/// (bit i for lanes[i]). A settled lane drew no bump and every s it met was
/// >= its s_min: each of its hits is false, and its Rng is left exactly as
/// sample_hits would leave it, polar cache included. Every other lane is
/// handed back untouched, bit for bit; its window must go through the
/// scalar sample_hits from its start. Bump draws follow Rng::bernoulli, so
/// any bump_probability is exact (p >= 1 hands the lane back). Returns 0
/// when idle_lanes_enabled() is false.
std::uint32_t settle_idle_windows(const IdleLane* lanes, std::size_t n,
                                  std::size_t count) noexcept;

}  // namespace coreda::sensors
