#include "sensors/models.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace coreda::sensors {

double Vec3::magnitude() const noexcept {
  return std::sqrt(x * x + y * y + z * z);
}

namespace {

/// Gravity on z at rest; manipulation tilts and shakes the node so the
/// deviation `r` is split across axes in the random direction (theta, phi).
Vec3 accel_reading(double r, double theta, double phi, double nx, double ny,
                   double nz) noexcept {
  // An idle, un-bumped sample has r == ±0, so every trig term is ±0 and
  // ±0 + n == n (normal() never returns -0.0): skipping the trig is
  // bit-exact.
  if (r == 0.0) return {nx, ny, 1.0 + nz};
  return {r * std::sin(phi) * std::cos(theta) + nx,
          r * std::sin(phi) * std::sin(theta) + ny,
          1.0 + r * std::cos(phi) + nz};
}

/// The firmware's excitation metric: deviation of |a| from 1 g.
double accel_excitation(const Vec3& a) noexcept {
  return std::abs(a.magnitude() - 1.0);
}

/// The idle cutoff behind sample_hits. Every polar deviate z satisfies
/// |z| <= sqrt(-2 ln s) (util::Rng::PolarDraw), so when an idle sample's
/// excitation is at most `noise_scale` · max|z| over its deviates, all of
/// them having s >= the cutoff keeps it at or below 0.9 · threshold: a
/// certain non-hit, with a 10 % margin that dwarfs rounding. The cutoff is
/// 1, which no s reaches, for a threshold <= 0, and also when it would lie
/// within a few ulps of 1: there, exp's rounding is a large share of
/// -2 ln s and could admit an s past the exact cutoff, while so tight a
/// cutoff would admit almost no s anyway.
double idle_s_min(double threshold, double noise_scale) noexcept {
  // noise_scale · sqrt(-2 ln s) <= 0.9 · threshold, solved for s.
  const double z = 0.9 * threshold / noise_scale;
  if (!(threshold > 0.0) || !(z * z >= 1e-12)) return 1.0;
  return std::exp(-0.5 * z * z);
}

}  // namespace

void SensorModel::sample_block(sim::TimePoint first, sim::Duration step,
                               const double* activations, std::size_t count,
                               double intensity, util::Rng& rng,
                               double* out) {
  sim::TimePoint at = first;
  for (std::size_t i = 0; i < count; ++i, at = at + step) {
    out[i] = sample(at, activations[i], intensity, rng);
  }
}

void SensorModel::sample_hits(sim::TimePoint first, sim::Duration step,
                              const double* activations, std::size_t count,
                              double intensity, double threshold,
                              util::Rng& rng, bool* hits) {
  constexpr std::size_t kChunk = 16;
  double excitation[kChunk];
  sim::TimePoint at = first;
  for (std::size_t done = 0; done < count;) {
    const std::size_t n = std::min(kChunk, count - done);
    sample_block(at, step, activations + done, n, intensity, rng,
                 excitation);
    for (std::size_t i = 0; i < n; ++i, at = at + step) {
      hits[done + i] = excitation[i] > threshold;
    }
    done += n;
  }
}

double AccelerometerModel::draw_deviation(double activation,
                                          double intensity,
                                          util::Rng& rng) noexcept {
  const double drive = activation * intensity * params_.usage_scale_g;
  double bump = 0.0;
  if (activation <= 0.0 && rng.bernoulli(params_.bump_probability)) {
    bump = params_.bump_magnitude_g * rng.uniform(0.6, 1.0);
  }
  return drive + bump;
}

double AccelerometerModel::sample(sim::TimePoint /*t*/, double activation,
                                  double intensity, util::Rng& rng) {
  const double r = draw_deviation(activation, intensity, rng);
  const double theta = rng.uniform(0.0, 2.0 * std::numbers::pi);
  const double phi = rng.uniform(0.0, std::numbers::pi);
  const double nx = rng.normal(0.0, params_.noise_g);
  const double ny = rng.normal(0.0, params_.noise_g);
  const double nz = rng.normal(0.0, params_.noise_g);
  last_ = accel_reading(r, theta, phi, nx, ny, nz);
  return accel_excitation(last_);
}

void AccelerometerModel::sample_block(sim::TimePoint first,
                                      sim::Duration step,
                                      const double* activations,
                                      std::size_t count, double intensity,
                                      util::Rng& rng, double* out) {
  // Qualified call = devirtualized; one dispatch per window, not per sample.
  sim::TimePoint at = first;
  for (std::size_t i = 0; i < count; ++i, at = at + step) {
    out[i] = AccelerometerModel::sample(at, activations[i], intensity, rng);
  }
}

void AccelerometerModel::sample_hits(sim::TimePoint /*first*/,
                                     sim::Duration /*step*/,
                                     const double* activations,
                                     std::size_t count, double intensity,
                                     double threshold, util::Rng& rng,
                                     bool* hits) {
  const double s_min =
      idle_s_min(threshold, std::numbers::sqrt3 * params_.noise_g);
  for (std::size_t i = 0; i < count; ++i) {
    // sample()'s draws in sample()'s order; only the finishing is deferred.
    const double r = draw_deviation(activations[i], intensity, rng);
    const double theta = rng.uniform(0.0, 2.0 * std::numbers::pi);
    const double phi = rng.uniform(0.0, std::numbers::pi);
    const util::Rng::PolarDraw dx = rng.draw_normal();
    const util::Rng::PolarDraw dy = rng.draw_normal();
    const util::Rng::PolarDraw dz = rng.draw_normal();
    if (r == 0.0 && dx.s >= s_min && dy.s >= s_min && dz.s >= s_min) {
      hits[i] = false;
      continue;
    }
    const double nx = rng.finish_normal(dx, 0.0, params_.noise_g);
    const double ny = rng.finish_normal(dy, 0.0, params_.noise_g);
    const double nz = rng.finish_normal(dz, 0.0, params_.noise_g);
    hits[i] = accel_excitation(accel_reading(r, theta, phi, nx, ny, nz)) >
              threshold;
  }
}

bool AccelerometerModel::idle_lane(double threshold,
                                   IdleLane& lane) const noexcept {
  const double s_min =
      idle_s_min(threshold, std::numbers::sqrt3 * params_.noise_g);
  // At p == 0 or 1 bernoulli draws nothing, and at s_min == 1 nothing
  // settles: such windows are the scalar path's.
  if (!(params_.bump_probability > 0.0 && params_.bump_probability < 1.0) ||
      !(s_min < 1.0)) {
    return false;
  }
  lane.bump_probability = params_.bump_probability;
  lane.s_min = s_min;
  return true;
}

double PressureModel::draw_bump(double activation, util::Rng& rng) noexcept {
  if (activation <= 0.0 && rng.bernoulli(params_.bump_probability)) {
    return params_.bump_magnitude * rng.uniform(0.5, 1.0);
  }
  return 0.0;
}

double PressureModel::sample(sim::TimePoint /*t*/, double activation,
                             double intensity, util::Rng& rng) {
  const double noise = std::abs(rng.normal(0.0, params_.noise));
  // Adding a 0.0 bump is exact: the sum is never -0.0 (|noise| >= +0).
  return std::max(0.0, activation * intensity * params_.usage_scale + noise +
                           draw_bump(activation, rng));
}

void PressureModel::sample_block(sim::TimePoint first, sim::Duration step,
                                 const double* activations,
                                 std::size_t count, double intensity,
                                 util::Rng& rng, double* out) {
  sim::TimePoint at = first;
  for (std::size_t i = 0; i < count; ++i, at = at + step) {
    out[i] = PressureModel::sample(at, activations[i], intensity, rng);
  }
}

void PressureModel::sample_hits(sim::TimePoint /*first*/,
                                sim::Duration /*step*/,
                                const double* activations, std::size_t count,
                                double intensity, double threshold,
                                util::Rng& rng, bool* hits) {
  const double s_min = idle_s_min(threshold, params_.noise);
  for (std::size_t i = 0; i < count; ++i) {
    const double activation = activations[i];
    const double drive = activation * intensity * params_.usage_scale;
    const util::Rng::PolarDraw noise = rng.draw_normal();
    const double bump = draw_bump(activation, rng);
    if (drive == 0.0 && bump == 0.0 && noise.s >= s_min) {
      hits[i] = false;
      continue;
    }
    hits[i] = std::max(0.0, drive + std::abs(rng.finish_normal(
                                        noise, 0.0, params_.noise)) +
                                bump) > threshold;
  }
}

double MotionModel::sample(sim::TimePoint /*t*/, double activation,
                           double intensity, util::Rng& rng) {
  const double p = activation > 0.0
                       ? std::clamp(params_.detect_probability * activation *
                                        intensity,
                                    0.0, 1.0)
                       : params_.false_positive;
  return rng.bernoulli(p) ? 1.0 : 0.0;
}

double BrightnessModel::sample(sim::TimePoint t, double activation,
                               double intensity, util::Rng& rng) {
  const double drift =
      params_.drift_amplitude *
      std::sin(2.0 * std::numbers::pi * t.to_seconds() /
               params_.drift_period_s);
  const double level = params_.ambient + drift +
                       activation * intensity * params_.usage_delta +
                       rng.normal(0.0, params_.noise);
  // Excitation = deviation from the (known) ambient set point.
  return std::abs(level - params_.ambient);
}

double TemperatureModel::sample(sim::TimePoint /*t*/, double activation,
                                double intensity, util::Rng& rng) {
  const double target = activation * intensity * params_.usage_scale;
  state_ += params_.lag_per_sample * (target - state_);
  return std::max(0.0, state_ + rng.normal(0.0, params_.noise));
}

std::unique_ptr<SensorModel> make_sensor_model(adl::SensorKind kind) {
  using enum adl::SensorKind;
  switch (kind) {
    case kAccelerometer:
      return std::make_unique<AccelerometerModel>();
    case kPressure:
      return std::make_unique<PressureModel>();
    case kMotion:
      return std::make_unique<MotionModel>();
    case kBrightness:
      return std::make_unique<BrightnessModel>();
    case kTemperature:
      return std::make_unique<TemperatureModel>();
  }
  return std::make_unique<AccelerometerModel>();
}

}  // namespace coreda::sensors
