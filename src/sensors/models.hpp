#pragma once

#include <memory>

#include "adl/types.hpp"
#include "sensors/idle_lanes.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace coreda::sensors {

/// A 3-axis acceleration sample in g.
struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  double magnitude() const noexcept;
};

/// Produces the *excitation* a PAVENET firmware compares against its
/// threshold: a non-negative scalar that is ~0 at rest and rises toward the
/// tool's usage intensity while the tool is manipulated.
///
/// `activation` is the instantaneous envelope value in [0, 1] (0 = tool at
/// rest) and `intensity` the tool's intrinsic vigor; both come from the
/// deployment model. Sampling consumes randomness, so models are stateful
/// per node and never shared.
class SensorModel {
 public:
  virtual ~SensorModel() = default;

  /// One raw excitation sample at virtual time `t`.
  virtual double sample(sim::TimePoint t, double activation,
                        double intensity, util::Rng& rng) = 0;

  /// Fills out[0..count) with consecutive samples at `first`,
  /// `first + step`, ..., reading the matching activation for each from
  /// `activations`. Values and RNG draw order are identical to calling
  /// sample() in a loop; hot models override this to hoist the virtual
  /// dispatch out of the batched firmware's per-sample loop. `out` may
  /// alias `activations` (each element is read before it is written).
  virtual void sample_block(sim::TimePoint first, sim::Duration step,
                            const double* activations, std::size_t count,
                            double intensity, util::Rng& rng, double* out);

  /// The firmware's view of sample_block: sets hits[i] to whether sample
  /// i's excitation exceeds `threshold`, i.e. exactly
  /// `sample(...) > threshold`, with identical RNG draws. Models override
  /// it to decide clearly idle samples without finishing them (no trig,
  /// log or sqrt); any sample the shortcut cannot settle is computed
  /// exactly. Does not update any last-reading state.
  virtual void sample_hits(sim::TimePoint first, sim::Duration step,
                           const double* activations, std::size_t count,
                           double intensity, double threshold,
                           util::Rng& rng, bool* hits);

  /// Whether this model's all-idle windows at `threshold` may go to the
  /// idle lanes (settle_idle_windows), which then replay its sample_hits
  /// exactly. If so, sets `lane`'s bump_probability and s_min (not its
  /// rng). The default is no.
  virtual bool idle_lane(double /*threshold*/,
                         IdleLane& /*lane*/) const noexcept {
    return false;
  }

  /// The threshold a node firmware should use with this model: chosen so a
  /// full-intensity manipulation comfortably exceeds it while idle noise
  /// (including accidental bumps) rarely does.
  virtual double recommended_threshold() const noexcept = 0;
};

/// 3-axis accelerometer. At rest the magnitude is 1 g plus noise; during
/// manipulation the deviation from 1 g scales with activation x intensity.
/// Idle periods occasionally see short accidental bumps (someone brushing
/// against the table) — the artifact the paper's 3-of-10 vote exists to
/// reject.
class AccelerometerModel final : public SensorModel {
 public:
  struct Params {
    double noise_g = 0.035;        ///< stddev of per-axis idle noise
    double usage_scale_g = 0.85;   ///< deviation at activation*intensity = 1
    double bump_probability = 0.004;  ///< per-sample chance of an idle bump
    double bump_magnitude_g = 0.9;    ///< excitation of an accidental bump
  };

  AccelerometerModel() = default;
  explicit AccelerometerModel(Params params) : params_(params) {}

  double sample(sim::TimePoint t, double activation, double intensity,
                util::Rng& rng) override;
  void sample_block(sim::TimePoint first, sim::Duration step,
                    const double* activations, std::size_t count,
                    double intensity, util::Rng& rng, double* out) override;
  /// An idle, un-bumped sample is a non-hit once all three axis deviates
  /// clear the idle cutoff (its excitation is <= √3 · noise_g · max|z|).
  void sample_hits(sim::TimePoint first, sim::Duration step,
                   const double* activations, std::size_t count,
                   double intensity, double threshold, util::Rng& rng,
                   bool* hits) override;
  /// Yes when 0 < bump_probability < 1 and the threshold leaves an idle
  /// cutoff below 1 (threshold > 0 and not vanishingly small).
  bool idle_lane(double threshold, IdleLane& lane) const noexcept override;
  double recommended_threshold() const noexcept override { return 0.30; }

  /// The full 3-axis reading behind the last sample() call (sample_hits
  /// leaves it alone); useful for tests and trace export.
  Vec3 last_reading() const noexcept { return last_; }

 private:
  /// Deviation magnitude from rest: usage drive plus an idle bump, whose
  /// draws it takes.
  double draw_deviation(double activation, double intensity,
                        util::Rng& rng) noexcept;

  Params params_;
  Vec3 last_{};
};

/// Pressure sensor (the electronic pot's dispense lever). Produces a small
/// signal: pressing the lever is a gentle, short action — the reason the
/// paper measures only 80 % extract precision for "pour hot water".
class PressureModel final : public SensorModel {
 public:
  struct Params {
    double noise = 0.05;
    double usage_scale = 0.75;
    double bump_probability = 0.002;
    double bump_magnitude = 0.5;
  };

  PressureModel() = default;
  explicit PressureModel(Params params) : params_(params) {}

  double sample(sim::TimePoint t, double activation, double intensity,
                util::Rng& rng) override;
  void sample_block(sim::TimePoint first, sim::Duration step,
                    const double* activations, std::size_t count,
                    double intensity, util::Rng& rng, double* out) override;
  /// An idle, un-bumped sample is a non-hit once its noise deviate clears
  /// the idle cutoff (its excitation is noise · |z|).
  void sample_hits(sim::TimePoint first, sim::Duration step,
                   const double* activations, std::size_t count,
                   double intensity, double threshold, util::Rng& rng,
                   bool* hits) override;
  double recommended_threshold() const noexcept override { return 0.25; }

 private:
  /// The lever's accidental-bump excitation, 0 when none; takes its draws.
  double draw_bump(double activation, util::Rng& rng) noexcept;

  Params params_;
};

/// Passive-infrared-style motion sensor: a stochastic detector that fires
/// with probability proportional to activation, plus a small false-positive
/// floor.
class MotionModel final : public SensorModel {
 public:
  struct Params {
    double detect_probability = 0.90;  ///< per-sample hit rate at full vigor
    double false_positive = 0.005;
  };

  MotionModel() = default;
  explicit MotionModel(Params params) : params_(params) {}

  double sample(sim::TimePoint t, double activation, double intensity,
                util::Rng& rng) override;
  double recommended_threshold() const noexcept override { return 0.5; }

 private:
  Params params_;
};

/// Brightness sensor: ambient light with slow diurnal drift; manipulation
/// (e.g. opening a cabinet) changes the level sharply.
class BrightnessModel final : public SensorModel {
 public:
  struct Params {
    double ambient = 0.4;
    double drift_amplitude = 0.1;
    double drift_period_s = 3600.0;
    double noise = 0.05;
    double usage_delta = 0.5;
  };

  BrightnessModel() = default;
  explicit BrightnessModel(Params params) : params_(params) {}

  double sample(sim::TimePoint t, double activation, double intensity,
                util::Rng& rng) override;
  double recommended_threshold() const noexcept override { return 0.30; }

 private:
  Params params_;
};

/// Temperature sensor: slow thermal response toward a usage-dependent
/// target (e.g. a kettle warming). First-order lag, so excitation outlives
/// the manipulation slightly.
class TemperatureModel final : public SensorModel {
 public:
  struct Params {
    double noise = 0.01;
    double usage_scale = 0.6;
    double lag_per_sample = 0.15;  ///< fraction of gap closed per sample
  };

  TemperatureModel() = default;
  explicit TemperatureModel(Params params) : params_(params) {}

  double sample(sim::TimePoint t, double activation, double intensity,
                util::Rng& rng) override;
  double recommended_threshold() const noexcept override { return 0.20; }

 private:
  Params params_;
  double state_ = 0.0;
};

/// Builds the default model for a sensor kind (paper Table 1's sensor
/// complement).
std::unique_ptr<SensorModel> make_sensor_model(adl::SensorKind kind);

}  // namespace coreda::sensors
