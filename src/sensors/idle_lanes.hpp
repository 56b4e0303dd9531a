#pragma once

#include <cstddef>
#include <cstdint>

#include "util/rng.hpp"

namespace coreda::sensors {

/// Idle accelerometer windows settled eight RNG streams at a time.
///
/// An idle window is one whose activations are all ±0. For it,
/// AccelerometerModel::sample_hits takes, per sample, one bump draw (and a
/// bump's magnitude when it drew one), θ, φ and three polar normals. A
/// sample is *doubtful* when it drew a bump or one of its deviates has
/// s < s_min, the model's idle cutoff; every other sample is a certain
/// non-hit, so only doubtful samples can hit. The lanes replay exactly
/// those draws for up to kIdleLanes windows side by side (xoshiro256**
/// and the polar rejection loop in AVX-512 lanes) and count each window's
/// doubtful samples, so a window that cannot reach the firmware's vote
/// needs no scalar work at all.
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
/// (bit i for lanes[i]).
///
/// A lane settles when at most `tolerance` of its samples were doubtful,
/// so its window has at most `tolerance` hits; a caller passes its vote's
/// threshold − 1, and every lane of one call shares it, as it shares
/// `count`. A settled lane's Rng is left exactly as sample_hits would
/// leave it, polar cache and cached factor included. One case is handed
/// back however few doubts it had: a doubtful last sample that began
/// without a cached deviate, whose finishing leaves the cached factor set.
/// Every lane handed back is untouched, bit for bit; its window must go
/// through the scalar sample_hits from its start. At tolerance 0 a lane
/// settles exactly when every sample is a certain non-hit. Bump draws
/// follow Rng::bernoulli, so any bump_probability is exact (p >= 1 hands
/// the lane back). Returns 0 when idle_lanes_enabled() is false.
std::uint32_t settle_idle_windows(const IdleLane* lanes, std::size_t n,
                                  std::size_t count,
                                  std::size_t tolerance) noexcept;

}  // namespace coreda::sensors
