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

class NodeBank;

/// A simulated PAVENET module attached to one tool.
///
/// The firmware loop runs at FirmwareConfig::sampling_hz on the shared
/// discrete-event scheduler: read the sensor, feed the k-of-n detector, and
/// when a window votes "in use", append an EEPROM record and announce the
/// tool's ID (the node uid) over the radio — throttled to one announcement
/// per reannounce_interval while usage continues. Downlink LED commands
/// drive the green/red indicator LEDs.
///
/// With FirmwareConfig::batch_sampling (the default) the firmware wakes
/// once per vote window rather than once per sample and synthesizes the
/// window's samples retroactively from the world's episode history — 10×
/// fewer scheduler events at identical sampled values, since the tumbling
/// detector can only vote at window boundaries, which is exactly when the
/// batched firmware wakes. Nodes built by a NodeBank share one wake per
/// window; a node powered on by itself (or powered off and on again) wakes
/// alone, as a bank of one, through the same code. A wake asks the sensor
/// model only for each sample's hit (SensorModel::sample_hits), which
/// settles idle samples without finishing them, and hands idle
/// accelerometer windows to the idle lanes (sensors/idle_lanes.hpp). The
/// per-tick loop computes every excitation with sample() and stays the
/// reference. power_off() flushes the partial window so samples() and
/// detector state match the per-tick loop at any stopping point.
///
/// The constructor throws std::invalid_argument for a sampling_hz of 0 or
/// above 1 MHz (no whole-microsecond period), and in batch mode for a vote
/// window (vote_window / sampling_hz) longer than
/// ManipulationWorld::kHistoryRetention, which a wake could not read back.
class PavenetNode {
 public:
  /// The node reads its tool's activation from `world` and transmits over
  /// `channel`; all three referenced objects must outlive the node.
  PavenetNode(const adl::Tool& tool, sim::Scheduler& scheduler,
              sensors::ManipulationWorld& world, RadioChannel& channel,
              util::Rng rng, FirmwareConfig config = {});

  PavenetNode(const PavenetNode&) = delete;
  PavenetNode& operator=(const PavenetNode&) = delete;

  /// Begins the periodic firmware task, waking alone. Idempotent.
  void power_on();

  /// Stops sampling (battery pulled); LED state is retained. A bank member
  /// leaves its bank's wake; powered on again, it wakes alone.
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
  friend class NodeBank;

  void start();
  void firmware_tick();
  void process_sample(sim::TimePoint at, double activation);
  void process_hit(sim::TimePoint at, bool hit);
  void handle_downlink(const Packet& packet);
  sim::Duration sample_period() const noexcept {
    return sim::Duration::micros(1'000'000 / config_.sampling_hz);
  }
  sim::Duration window_period() const noexcept {
    return sim::Duration::micros(
        sample_period().total_micros() *
        static_cast<std::int64_t>(config_.vote_window));
  }

  // A batched window in two phases (NodeBank::wake): gather() reads the
  // activations of the samples due by `limit` and marks an idle window
  // the lanes may settle; sample_window() computes the hits with the
  // scalar sample_hits, unless the lanes settled the window, i.e. proved
  // it closes with fewer hits than vote_threshold; vote() runs the
  // samples through the detector, EEPROM and radio, or for a settled
  // window only advances samples() and the next sample time.
  std::size_t gather(sim::TimePoint limit);
  void sample_window();
  void vote();

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
  sim::EventHandle tick_;                ///< own wake (outside a bank)
  NodeBank* bank_ = nullptr;             ///< the bank whose wake it rides
  bool powered_ = false;
  sim::TimePoint next_sample_time_;      ///< batch mode: next tick to synthesize
  std::vector<double> activation_buf_;   ///< batch mode: per-wake scratch
  std::unique_ptr<bool[]> hit_buf_;      ///< batch mode: vote_window hits
  std::size_t window_count_ = 0;         ///< batch mode: samples gathered
  bool window_idle_ = false;             ///< batch mode: a lane candidate
  bool window_settled_ = false;          ///< batch mode: below the vote (lanes)
  bool lane_ok_ = false;                 ///< idle windows may go to lanes
  sensors::IdleLane lane_{};             ///< this node's lane parameters
  sim::TimePoint last_announce_;
  bool announced_once_ = false;
  std::uint64_t announcements_ = 0;
  std::uint64_t samples_ = 0;
};

/// The PAVENET nodes a deployment powers on together, woken once per vote
/// window instead of once per node.
///
/// Members share the bank's scheduler, world, radio channel and
/// FirmwareConfig, and vote in the order they were added (power-on order).
/// In batch mode power_on() schedules one periodic event at the instants
/// the members' own events would fire: every sample_period × vote_window,
/// starting that long after power-on. A wake first computes every riding
/// member's window of hits — idle accelerometer windows eight at a time in
/// the idle lanes, every other window through its model's sample_hits —
/// and then runs each member's samples, vote, EEPROM record and
/// announcement, in power-on order. That is exactly what back-to-back
/// per-node wakes did (DESIGN.md §5), given the precondition: nothing a
/// wake schedules may land on a later wake instant, i.e. no radio delay
/// (latency + jitter, airtime, their sum) is a whole number of windows.
///
/// A member powered off leaves the shared wake; powered on again, it
/// wakes alone. With batch_sampling off every member keeps its per-tick
/// event (the oracle).
class NodeBank {
 public:
  /// All three referenced objects must outlive the bank.
  NodeBank(sim::Scheduler& scheduler, sensors::ManipulationWorld& world,
           RadioChannel& channel, FirmwareConfig config = {});

  NodeBank(const NodeBank&) = delete;
  NodeBank& operator=(const NodeBank&) = delete;

  /// Builds a powered-off member for `tool`. Throws like PavenetNode.
  PavenetNode& add(const adl::Tool& tool, util::Rng rng);

  /// Powers on, together, every member that is off. While members still
  /// share a running wake, the others cannot join its phase and are
  /// powered on alone instead.
  void power_on();

  /// Powers every member off, flushing partial windows in power-on order.
  void power_off();

  /// Members in power-on order.
  const std::vector<std::unique_ptr<PavenetNode>>& nodes() const noexcept {
    return nodes_;
  }

 private:
  friend class PavenetNode;

  /// One batched wake of `members` (a bank's riders, or one node alone).
  static void wake(PavenetNode* const* members, std::size_t count);
  void leave(PavenetNode& node) noexcept;

  sim::Scheduler* scheduler_;
  sensors::ManipulationWorld* world_;
  RadioChannel* channel_;
  FirmwareConfig config_;
  std::vector<std::unique_ptr<PavenetNode>> nodes_;
  std::vector<PavenetNode*> riders_;  ///< members sharing wake_, in order
  sim::EventHandle wake_;
};

}  // namespace coreda::pavenet
