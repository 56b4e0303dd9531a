#pragma once

#include <memory>
#include <vector>

#include "adl/tool.hpp"
#include "pavenet/detector.hpp"
#include "pavenet/eeprom.hpp"
#include "pavenet/led.hpp"
#include "pavenet/node_config.hpp"
#include "pavenet/radio.hpp"
#include "sensors/models.hpp"
#include "sensors/world.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace coreda::pavenet {

/// A simulated PAVENET module attached to one tool.
///
/// The firmware loop runs at FirmwareConfig::sampling_hz on the shared
/// discrete-event scheduler: read the sensor, feed the k-of-n detector, and
/// when a window votes "in use", append an EEPROM record and announce the
/// tool's ID (the node uid) over the radio — throttled to one announcement
/// per reannounce_interval while usage continues. Downlink LED commands
/// drive the green/red indicator LEDs.
///
/// With FirmwareConfig::batch_sampling (the default) the task wakes once
/// per vote window rather than once per sample and synthesizes the window's
/// samples retroactively from the world's episode history — 10× fewer
/// scheduler events at identical sampled values, since the tumbling
/// detector can only vote at window boundaries, which is exactly when the
/// batched task wakes. The batched task asks the sensor model only for each
/// sample's hit (SensorModel::sample_hits), which settles idle samples
/// without finishing them; the per-tick loop computes every excitation
/// with sample() and stays the reference. power_off() flushes the partial
/// window so samples() and detector state match the per-tick loop at any
/// stopping point.
class PavenetNode {
 public:
  /// The node reads its tool's activation from `world` and transmits over
  /// `channel`; all three referenced objects must outlive the node.
  PavenetNode(const adl::Tool& tool, sim::Scheduler& scheduler,
              sensors::ManipulationWorld& world, RadioChannel& channel,
              util::Rng rng, FirmwareConfig config = {});

  PavenetNode(const PavenetNode&) = delete;
  PavenetNode& operator=(const PavenetNode&) = delete;

  /// Begins the periodic firmware task. Idempotent.
  void power_on();

  /// Stops sampling (battery pulled); LED state is retained.
  void power_off();

  std::uint16_t uid() const noexcept { return tool_.id; }
  const adl::Tool& tool() const noexcept { return tool_; }
  const Led& led() const noexcept { return led_; }
  Led& led() noexcept { return led_; }
  const Eeprom& eeprom() const noexcept { return eeprom_; }
  const FirmwareConfig& config() const noexcept { return config_; }
  double threshold() const noexcept { return detector_.threshold(); }

  std::uint64_t announcements() const noexcept { return announcements_; }
  /// Sensor samples taken since construction (energy accounting).
  std::uint64_t samples() const noexcept { return samples_; }

 private:
  void firmware_tick();
  void firmware_batch();
  void synthesize_until(sim::TimePoint limit);
  void process_sample(sim::TimePoint at, double activation);
  void process_hit(sim::TimePoint at, bool hit);
  void handle_downlink(const Packet& packet);
  sim::Duration sample_period() const noexcept {
    return sim::Duration::micros(1'000'000 / config_.sampling_hz);
  }

  adl::Tool tool_;
  sim::Scheduler* scheduler_;
  sensors::ManipulationWorld* world_;
  RadioChannel* channel_;
  util::Rng rng_;
  FirmwareConfig config_;
  std::unique_ptr<sensors::SensorModel> sensor_;
  ThresholdDetector detector_;
  Led led_;
  Eeprom eeprom_;
  sim::EventHandle tick_;
  bool powered_ = false;
  sim::TimePoint next_sample_time_;      ///< batch mode: next tick to synthesize
  std::vector<double> activation_buf_;   ///< batch mode: per-wake scratch
  std::unique_ptr<bool[]> hit_buf_;      ///< batch mode: vote_window hits
  sim::TimePoint last_announce_;
  bool announced_once_ = false;
  std::uint64_t announcements_ = 0;
  std::uint64_t samples_ = 0;
};

}  // namespace coreda::pavenet
