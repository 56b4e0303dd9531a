#include "sensors/idle_lanes.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "sensors/models.hpp"

// The idle lanes against the scalar AccelerometerModel::sample_hits they
// replay. Without AVX-512F/DQ (or under COREDA_LANE_SIMD=0) the lanes
// settle nothing and the tests skip.

namespace coreda::sensors {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

::testing::AssertionResult same_raw(const util::Rng& a, const util::Rng& b) {
  const util::Rng::Raw x = a.raw();
  const util::Rng::Raw y = b.raw();
  if (x.state == y.state && same_bits(x.cached_v, y.cached_v) &&
      same_bits(x.cached_s, y.cached_s) &&
      same_bits(x.cached_factor, y.cached_factor) &&
      x.has_cached_normal == y.has_cached_normal) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << "raw Rng states differ";
}

/// The scalar oracle: what sample_hits draws for `count` idle samples from
/// `rng`, with each sample's doubt. A sample is doubtful when it drew a
/// bump or one of its deviates has s < s_min; only such a sample can hit.
struct ScalarWindow {
  std::size_t doubtful = 0;
  /// The last sample was doubtful and began without a cached deviate, so
  /// finishing it leaves the pair's factor cached.
  bool factor_left = false;
};

ScalarWindow scalar_window(util::Rng rng, double bump_probability,
                           double s_min, std::size_t count) {
  ScalarWindow w;
  for (std::size_t i = 0; i < count; ++i) {
    const bool began_fresh = !rng.raw().has_cached_normal;
    bool doubt = rng.bernoulli(bump_probability);
    if (doubt) rng.uniform();  // the bump's magnitude
    rng.uniform();             // θ
    rng.uniform();             // φ
    for (int axis = 0; axis < 3; ++axis) {
      if (!(rng.draw_normal().s >= s_min)) doubt = true;
    }
    w.doubtful += doubt ? 1 : 0;
    w.factor_left = doubt && began_fresh;
  }
  return w;
}

/// Whether the lanes must settle that window at `tolerance`.
bool scalar_settles(const ScalarWindow& w, double bump_probability,
                    std::size_t tolerance) {
  return bump_probability < 1.0 && w.doubtful <= tolerance && !w.factor_left;
}

/// Lane i's starting stream: fresh, a cached deviate whose factor is
/// known, a cached deviate not yet finished, or no cached deviate but
/// stale nonzero cache fields.
util::Rng seeded_stream(std::uint64_t seed, std::size_t lane) {
  util::Rng rng(seed * 131 + lane);
  switch (lane % 4) {
    case 1:
      rng.normal(0.0, 1.0);
      break;
    case 2:
      rng.draw_normal();
      break;
    case 3:
      rng.normal(0.0, 1.0);
      rng.normal(0.0, 1.0);
      break;
    default:
      break;
  }
  return rng;
}

// Every lane against the scalar oracle and the scalar sample_hits, at
// tolerances 0 (every sample a certain non-hit) up to 5, windows of 6, 7
// and 10 samples, and lanes that begin with and without a cached deviate
// (the phase flips on every sample, so odd windows flip it per window).
TEST(IdleLanesTest, SettleExactlyWhereScalarSampleHitsSettles) {
  if (!idle_lanes_enabled()) GTEST_SKIP() << "idle lanes unavailable";
  const double zeros[16] = {};
  const double recommended = AccelerometerModel().recommended_threshold();
  std::size_t settled_windows = 0;
  std::size_t settled_with_hits = 0;
  std::size_t handed_back = 0;
  std::size_t factor_left = 0;
  for (double threshold : {recommended, 0.12, 1e-9, -0.5}) {
    // The cutoff sample_hits uses; where the default model declines the
    // lanes for this threshold, that cutoff is 1.
    IdleLane probe{};
    const double s_min =
        AccelerometerModel().idle_lane(threshold, probe) ? probe.s_min : 1.0;
    for (double p : {0.004, 0.05, 0.3, 0.0, 1.0}) {
      AccelerometerModel::Params params;
      params.bump_probability = p;
      AccelerometerModel model(params);
      for (std::size_t tolerance : {0u, 1u, 2u, 5u}) {
        for (std::size_t n = 1; n <= kIdleLanes; ++n) {
          SCOPED_TRACE("threshold " + std::to_string(threshold) + " p " +
                       std::to_string(p) + " tolerance " +
                       std::to_string(tolerance) + " lanes " +
                       std::to_string(n));
          util::Rng streams[kIdleLanes];
          IdleLane lanes[kIdleLanes];
          for (std::size_t i = 0; i < n; ++i) {
            streams[i] = seeded_stream(n + 8 * tolerance, i);
            lanes[i] = IdleLane{&streams[i], p, s_min};
          }
          for (int round = 0; round < 30; ++round) {
            const std::size_t count = round % 3 == 0 ? 6
                                      : round % 3 == 1 ? 7
                                                       : 10;
            util::Rng before[kIdleLanes];
            for (std::size_t i = 0; i < n; ++i) before[i] = streams[i];
            const std::uint32_t settled =
                settle_idle_windows(lanes, n, count, tolerance);
            ASSERT_EQ(settled >> n, 0u);
            for (std::size_t i = 0; i < n; ++i) {
              util::Rng scalar = before[i];
              bool hits[16];
              model.sample_hits(sim::TimePoint::origin(),
                                sim::Duration::millis(100), zeros, count, 0.8,
                                threshold, scalar, hits);
              const ScalarWindow oracle =
                  scalar_window(before[i], p, s_min, count);
              const bool lane_settled = ((settled >> i) & 1u) != 0;
              ASSERT_EQ(lane_settled, scalar_settles(oracle, p, tolerance))
                  << "round " << round << " lane " << i;
              if (lane_settled) {
                std::size_t hit_count = 0;
                for (std::size_t k = 0; k < count; ++k) hit_count += hits[k];
                ASSERT_LE(hit_count, tolerance);
                ASSERT_TRUE(same_raw(streams[i], scalar))
                    << "round " << round << " lane " << i;
                ++settled_windows;
                settled_with_hits += hit_count > 0 ? 1 : 0;
              } else {
                ASSERT_TRUE(same_raw(streams[i], before[i]))
                    << "round " << round << " lane " << i;
                streams[i] = scalar;  // the node's scalar fallback
                ++handed_back;
                factor_left += oracle.factor_left &&
                               oracle.doubtful <= tolerance;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(settled_windows, 10000u);
  EXPECT_GT(settled_with_hits, 1000u);
  EXPECT_GT(handed_back, 10000u);
  EXPECT_GT(factor_left, 500u);
}

TEST(IdleLanesTest, DefaultIdleWindowsMostlySettle) {
  if (!idle_lanes_enabled()) GTEST_SKIP() << "idle lanes unavailable";
  AccelerometerModel model;
  IdleLane params{};
  ASSERT_TRUE(model.idle_lane(model.recommended_threshold(), params));
  util::Rng streams[kIdleLanes];
  IdleLane lanes[kIdleLanes];
  for (std::size_t i = 0; i < kIdleLanes; ++i) {
    streams[i] = util::Rng(1000 + i);
    lanes[i] = IdleLane{&streams[i], params.bump_probability, params.s_min};
  }
  const double zeros[10] = {};
  bool hits[10];
  std::size_t settled = 0;
  constexpr std::size_t kRounds = 500;
  for (std::size_t round = 0; round < kRounds; ++round) {
    // The firmware's 3-of-10 vote tolerates two doubtful samples.
    const std::uint32_t mask = settle_idle_windows(lanes, kIdleLanes, 10, 2);
    settled += static_cast<std::size_t>(std::popcount(mask));
    for (std::size_t i = 0; i < kIdleLanes; ++i) {
      if (((mask >> i) & 1u) != 0) continue;
      model.sample_hits(sim::TimePoint::origin(), sim::Duration::millis(100),
                        zeros, 10, 1.0, model.recommended_threshold(),
                        streams[i], hits);
    }
  }
  EXPECT_GE(static_cast<double>(settled), 0.99 * kRounds * kIdleLanes);
}

TEST(IdleLanesTest, LaneParametersFollowTheModel) {
  IdleLane lane{};
  EXPECT_TRUE(AccelerometerModel().idle_lane(0.30, lane));
  EXPECT_EQ(lane.bump_probability, 0.004);
  EXPECT_GT(lane.s_min, 0.0);
  EXPECT_LT(lane.s_min, 1e-4);
  EXPECT_FALSE(AccelerometerModel().idle_lane(-0.5, lane));
  EXPECT_FALSE(AccelerometerModel().idle_lane(1e-9, lane));
  for (double p : {0.0, 1.0}) {
    AccelerometerModel::Params params;
    params.bump_probability = p;
    EXPECT_FALSE(AccelerometerModel(params).idle_lane(0.30, lane));
  }
  EXPECT_FALSE(PressureModel().idle_lane(0.25, lane));
}

}  // namespace
}  // namespace coreda::sensors
