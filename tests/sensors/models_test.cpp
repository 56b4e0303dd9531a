#include "sensors/models.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace coreda::sensors {
namespace {

using sim::TimePoint;

TEST(Vec3Test, Magnitude) {
  EXPECT_DOUBLE_EQ((Vec3{3.0, 4.0, 0.0}).magnitude(), 5.0);
  EXPECT_DOUBLE_EQ((Vec3{}).magnitude(), 0.0);
}

TEST(AccelerometerModelTest, IdleExcitationIsLow) {
  AccelerometerModel model;
  util::Rng rng(1);
  util::RunningStats stats;
  for (int i = 0; i < 5000; ++i) {
    stats.add(model.sample(TimePoint::origin(), 0.0, 1.0, rng));
  }
  // Idle excitation is dominated by sensor noise, well under the 0.30
  // recommended threshold on average.
  EXPECT_LT(stats.mean(), 0.15);
}

TEST(AccelerometerModelTest, ActiveExcitationExceedsThreshold) {
  AccelerometerModel model;
  util::Rng rng(2);
  util::RunningStats stats;
  for (int i = 0; i < 5000; ++i) {
    stats.add(model.sample(TimePoint::origin(), 1.0, 1.2, rng));
  }
  EXPECT_GT(stats.mean(), model.recommended_threshold());
}

TEST(AccelerometerModelTest, ExcitationScalesWithIntensity) {
  AccelerometerModel model;
  util::Rng rng(3);
  util::RunningStats weak;
  util::RunningStats strong;
  for (int i = 0; i < 5000; ++i) {
    weak.add(model.sample(TimePoint::origin(), 1.0, 0.3, rng));
    strong.add(model.sample(TimePoint::origin(), 1.0, 1.3, rng));
  }
  EXPECT_LT(weak.mean(), strong.mean());
}

TEST(AccelerometerModelTest, IdleBumpsOccur) {
  AccelerometerModel::Params params;
  params.bump_probability = 0.05;
  AccelerometerModel model(params);
  util::Rng rng(4);
  int big = 0;
  for (int i = 0; i < 5000; ++i) {
    if (model.sample(TimePoint::origin(), 0.0, 1.0, rng) > 0.4) ++big;
  }
  EXPECT_GT(big, 50);  // bumps visible, but rare
  EXPECT_LT(big, 1000);
}

TEST(AccelerometerModelTest, LastReadingHasGravity) {
  AccelerometerModel model;
  util::Rng rng(5);
  util::RunningStats z;
  for (int i = 0; i < 2000; ++i) {
    model.sample(TimePoint::origin(), 0.0, 1.0, rng);
    z.add(model.last_reading().z);
  }
  EXPECT_NEAR(z.mean(), 1.0, 0.01);  // 1 g on the z axis at rest
}

TEST(PressureModelTest, MonotoneInActivation) {
  PressureModel model;
  util::Rng rng(6);
  util::RunningStats idle;
  util::RunningStats active;
  for (int i = 0; i < 5000; ++i) {
    idle.add(model.sample(TimePoint::origin(), 0.0, 0.5, rng));
    active.add(model.sample(TimePoint::origin(), 1.0, 0.5, rng));
  }
  EXPECT_LT(idle.mean(), active.mean());
}

TEST(PressureModelTest, NeverNegative) {
  PressureModel model;
  util::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GE(model.sample(TimePoint::origin(), 0.3, 0.4, rng), 0.0);
  }
}

TEST(MotionModelTest, BinaryOutput) {
  MotionModel model;
  util::Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double v = model.sample(TimePoint::origin(), 0.5, 1.0, rng);
    EXPECT_TRUE(v == 0.0 || v == 1.0);
  }
}

TEST(MotionModelTest, DetectionRateTracksActivation) {
  MotionModel model;
  util::Rng rng(9);
  int idle_hits = 0;
  int active_hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    idle_hits += model.sample(TimePoint::origin(), 0.0, 1.0, rng) > 0.5;
    active_hits += model.sample(TimePoint::origin(), 1.0, 1.0, rng) > 0.5;
  }
  EXPECT_LT(idle_hits, n / 50);
  EXPECT_GT(active_hits, n * 3 / 4);
}

TEST(BrightnessModelTest, UsageRaisesDeviation) {
  BrightnessModel model;
  util::Rng rng(10);
  util::RunningStats idle;
  util::RunningStats active;
  for (int i = 0; i < 3000; ++i) {
    idle.add(model.sample(TimePoint::origin(), 0.0, 1.0, rng));
    active.add(model.sample(TimePoint::origin(), 1.0, 1.0, rng));
  }
  EXPECT_LT(idle.mean(), active.mean());
}

TEST(TemperatureModelTest, LagsTowardTarget) {
  TemperatureModel model;
  util::Rng rng(11);
  // Sustained usage drives the state up over successive samples.
  double early = model.sample(TimePoint::origin(), 1.0, 1.0, rng);
  double late = early;
  for (int i = 0; i < 50; ++i) {
    late = model.sample(TimePoint::origin(), 1.0, 1.0, rng);
  }
  EXPECT_GT(late, early);
}

TEST(TemperatureModelTest, DecaysAfterUsage) {
  TemperatureModel model;
  util::Rng rng(12);
  for (int i = 0; i < 50; ++i) {
    model.sample(TimePoint::origin(), 1.0, 1.0, rng);
  }
  double v = 1.0;
  for (int i = 0; i < 100; ++i) {
    v = model.sample(TimePoint::origin(), 0.0, 1.0, rng);
  }
  EXPECT_LT(v, 0.1);
}

// sample_hits must equal `sample() > threshold` on a twin model and Rng,
// draw for draw, for every sensor kind, at thresholds on both sides of the
// idle shortcut's reach (<= 0 forces the exact path on every sample), over
// idle, active and mixed windows, and with bumps made common.
TEST(SampleHitsTest, MatchesSampleAboveThresholdForEveryKind) {
  using enum adl::SensorKind;
  struct Model {
    std::string name;
    std::function<std::unique_ptr<SensorModel>()> make;
  };
  std::vector<Model> models;
  for (auto kind : {kAccelerometer, kPressure, kMotion, kBrightness,
                    kTemperature}) {
    models.push_back({std::string(adl::to_string(kind)),
                      [kind] { return make_sensor_model(kind); }});
  }
  models.push_back({"bumpy accelerometer", [] {
                      AccelerometerModel::Params p;
                      p.bump_probability = 0.3;
                      return std::make_unique<AccelerometerModel>(p);
                    }});
  models.push_back({"bumpy pressure", [] {
                      PressureModel::Params p;
                      p.bump_probability = 0.3;
                      return std::make_unique<PressureModel>(p);
                    }});

  enum class Pattern { kIdle, kActive, kMixed };
  constexpr std::size_t kWindow = 10;
  const sim::Duration step = sim::Duration::millis(100);
  std::uint64_t hits_seen = 0;
  std::uint64_t misses_seen = 0;
  for (const Model& m : models) {
    const double recommended = m.make()->recommended_threshold();
    for (double threshold : {-0.5, 0.0, 0.05, 0.12, recommended, 0.77}) {
      for (Pattern pattern :
           {Pattern::kIdle, Pattern::kActive, Pattern::kMixed}) {
        SCOPED_TRACE(m.name + " threshold " + std::to_string(threshold) +
                     " pattern " + std::to_string(static_cast<int>(pattern)));
        const auto fast = m.make();
        const auto exact = m.make();
        util::Rng fast_rng(17);
        util::Rng exact_rng(17);
        util::Rng levels(23);
        TimePoint t = TimePoint::origin();
        for (int w = 0; w < 150; ++w) {
          double activations[kWindow];
          for (double& a : activations) {
            const bool idle =
                pattern == Pattern::kIdle ||
                (pattern == Pattern::kMixed && levels.bernoulli(0.5));
            a = idle ? 0.0 : levels.uniform(0.05, 1.0);
          }
          bool hits[kWindow];
          fast->sample_hits(t, step, activations, kWindow, 0.8, threshold,
                            fast_rng, hits);
          for (std::size_t i = 0; i < kWindow; ++i, t = t + step) {
            const bool expected =
                exact->sample(t, activations[i], 0.8, exact_rng) > threshold;
            ASSERT_EQ(hits[i], expected) << "window " << w << " sample " << i;
            ++(expected ? hits_seen : misses_seen);
          }
          ASSERT_EQ(fast_rng(), exact_rng()) << "window " << w;
        }
      }
    }
  }
  EXPECT_GT(hits_seen, 10000u);
  EXPECT_GT(misses_seen, 10000u);
}

TEST(SampleHitsTest, LeavesLastReadingAlone) {
  AccelerometerModel model;
  util::Rng rng(29);
  model.sample(TimePoint::origin(), 1.0, 1.0, rng);
  const Vec3 before = model.last_reading();
  const double activations[3] = {0.0, 1.0, 0.0};
  bool hits[3];
  model.sample_hits(TimePoint::origin(), sim::Duration::millis(100),
                    activations, 3, 1.0, 0.3, rng, hits);
  EXPECT_EQ(model.last_reading().x, before.x);
  EXPECT_EQ(model.last_reading().y, before.y);
  EXPECT_EQ(model.last_reading().z, before.z);
}

TEST(MakeSensorModelTest, CoversEveryKind) {
  using enum adl::SensorKind;
  for (auto kind : {kAccelerometer, kPressure, kBrightness, kTemperature,
                    kMotion}) {
    const auto model = make_sensor_model(kind);
    ASSERT_NE(model, nullptr);
    EXPECT_GT(model->recommended_threshold(), 0.0);
  }
}

}  // namespace
}  // namespace coreda::sensors
