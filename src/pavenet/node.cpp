#include "pavenet/node.hpp"

#include <algorithm>
#include <stdexcept>

namespace coreda::pavenet {

namespace {

/// Fewest idle windows worth a lane batch. One lane costs about 1.3x a
/// window's scalar sample_hits, two about 0.7x per window and eight about
/// 4x less per window (bench_perf_micro: BM_AccelIdleWindowLanes/n/2
/// against BM_AccelIdleWindowSampleHits).
constexpr std::size_t kMinLaneBatch = 2;

ThresholdDetector make_detector(const sensors::SensorModel& model,
                                const FirmwareConfig& config) {
  const double threshold = config.excitation_threshold > 0.0
                               ? config.excitation_threshold
                               : model.recommended_threshold();
  return ThresholdDetector(threshold, config.vote_window,
                           config.vote_threshold);
}

const FirmwareConfig& validated(const FirmwareConfig& config) {
  if (config.sampling_hz == 0 || config.sampling_hz > 1'000'000) {
    throw std::invalid_argument(
        "PavenetNode: sampling_hz must be in [1, 1000000]");
  }
  const std::int64_t window_us =
      static_cast<std::int64_t>(1'000'000 / config.sampling_hz) *
      static_cast<std::int64_t>(config.vote_window);
  constexpr sim::Duration kRetention =
      sensors::ManipulationWorld::kHistoryRetention;
  if (config.batch_sampling && window_us > kRetention.total_micros()) {
    throw std::invalid_argument(
        "PavenetNode: a batched vote window (vote_window / sampling_hz) "
        "must fit in ManipulationWorld::kHistoryRetention");
  }
  return config;
}

}  // namespace

PavenetNode::PavenetNode(const adl::Tool& tool, sim::Scheduler& scheduler,
                         sensors::ManipulationWorld& world,
                         RadioChannel& channel, util::Rng rng,
                         FirmwareConfig config)
    : tool_(tool),
      scheduler_(&scheduler),
      world_(&world),
      channel_(&channel),
      rng_(rng),
      config_(validated(config)),
      sensor_(sensors::make_sensor_model(tool.sensor)),
      detector_(make_detector(*sensor_, config)),
      led_(scheduler),
      eeprom_(kPavenetHardware.eeprom_bytes) {
  lane_ok_ = config_.batch_sampling &&
             sensor_->idle_lane(detector_.threshold(), lane_);
  lane_.rng = &rng_;
  channel_->attach_receiver(
      uid(), [this](const Packet& p) { handle_downlink(p); });
}

void PavenetNode::start() {
  powered_ = true;
  if (!config_.batch_sampling) return;
  // The first wake takes the samples from one period after power-on.
  next_sample_time_ = scheduler_->now() + sample_period();
  // A wake (or power_off's flush) covers at most one full window.
  activation_buf_.reserve(config_.vote_window);
  if (!hit_buf_) hit_buf_ = std::make_unique<bool[]>(config_.vote_window);
}

void PavenetNode::power_on() {
  if (powered_) return;
  start();
  if (config_.batch_sampling) {
    // Wake once per full vote window; the detector tumbles, so the only
    // instants firmware-visible behavior can change are window boundaries —
    // exactly the wake times. Alone, the node is a bank of one.
    tick_ = scheduler_->schedule_periodic(window_period(), [this] {
      PavenetNode* self = this;
      NodeBank::wake(&self, 1);
    });
  } else {
    tick_ = scheduler_->schedule_periodic(sample_period(),
                                          [this] { firmware_tick(); });
  }
}

void PavenetNode::power_off() {
  if (!powered_) return;
  powered_ = false;
  if (bank_ != nullptr) {
    bank_->leave(*this);
    bank_ = nullptr;
  } else {
    tick_.cancel();
  }
  if (config_.batch_sampling && gather(scheduler_->now()) > 0) {
    // Take the partial window the cancelled wake would have covered, so
    // samples() and energy accounting match the per-tick loop exactly.
    sample_window();
    vote();
  }
  detector_.reset();
}

void PavenetNode::firmware_tick() {
  const sim::TimePoint now = scheduler_->now();
  process_sample(now, world_->activation(tool_.id, now));
}

std::size_t PavenetNode::gather(sim::TimePoint limit) {
  window_count_ = 0;
  window_idle_ = false;
  window_settled_ = false;
  if (next_sample_time_ > limit) return 0;
  const sim::Duration period = sample_period();
  window_count_ =
      static_cast<std::size_t>((limit - next_sample_time_).total_micros() /
                               period.total_micros()) +
      1;
  activation_buf_.resize(window_count_);
  // A lane candidate is a whole window from a detector boundary, so
  // settling it closes the window with zero hits; it is idle when no
  // episode of the tool touches it, which also spares the lookups.
  window_idle_ = lane_ok_ && window_count_ == config_.vote_window &&
                 detector_.samples_in_window() == 0 &&
                 world_->idle_over(tool_.id, next_sample_time_, limit);
  if (window_idle_) {
    std::fill(activation_buf_.begin(), activation_buf_.end(), 0.0);
  } else {
    world_->activation_block(tool_.id, next_sample_time_, period,
                             window_count_, activation_buf_.data());
  }
  return window_count_;
}

void PavenetNode::sample_window() {
  // One virtual dispatch for the whole window. The vote only needs each
  // sample's hit, so the model never finishes samples it can prove idle.
  sensor_->sample_hits(next_sample_time_, sample_period(),
                       activation_buf_.data(), window_count_,
                       tool_.usage_intensity, detector_.threshold(), rng_,
                       hit_buf_.get());
}

void PavenetNode::vote() {
  const sim::Duration period = sample_period();
  if (window_settled_) {
    // The window is whole and began at a detector boundary, and the lanes
    // proved it has at most vote_threshold − 1 hits, so it closes below
    // the vote: it votes "idle", writes no record, sends nothing, and
    // leaves the detector at a boundary, where it began.
    samples_ += window_count_;
    next_sample_time_ = next_sample_time_ +
                        sim::Duration::micros(period.total_micros() *
                                              static_cast<std::int64_t>(
                                                  window_count_));
    return;
  }
  sim::TimePoint at = next_sample_time_;
  for (std::size_t i = 0; i < window_count_; ++i, at = at + period) {
    ++samples_;
    process_hit(at, hit_buf_[i]);
  }
  next_sample_time_ = at;
}

void PavenetNode::process_sample(sim::TimePoint at, double activation) {
  ++samples_;
  process_hit(at, sensor_->sample(at, activation, tool_.usage_intensity,
                                  rng_) > detector_.threshold());
}

void PavenetNode::process_hit(sim::TimePoint at, bool hit) {
  const std::uint32_t hits_before = detector_.pending_hits();
  if (!detector_.add_hit(hit)) return;

  // A window voted "in use". In batch mode this can only happen on the last
  // sample of a wake-up, i.e. `at` == the current scheduler time.
  eeprom_.append(EepromRecord{
      at, uid(), static_cast<std::uint8_t>(hits_before + (hit ? 1 : 0))});

  if (announced_once_ && at - last_announce_ < config_.reannounce_interval) {
    return;
  }
  announced_once_ = true;
  last_announce_ = at;
  ++announcements_;

  Packet packet;
  packet.kind = Packet::Kind::kToolUsage;
  packet.source_uid = uid();
  packet.dest_uid = 0;  // base station
  packet.vote_hits = eeprom_.last()->hits;
  channel_->transmit(packet);
}

void PavenetNode::handle_downlink(const Packet& packet) {
  if (packet.kind != Packet::Kind::kLedCommand) return;
  if (packet.blink_count == 0) {
    led_.all_off();
    return;
  }
  led_.blink(packet.led_color, packet.blink_count);
}

NodeBank::NodeBank(sim::Scheduler& scheduler,
                   sensors::ManipulationWorld& world, RadioChannel& channel,
                   FirmwareConfig config)
    : scheduler_(&scheduler),
      world_(&world),
      channel_(&channel),
      config_(config) {}

PavenetNode& NodeBank::add(const adl::Tool& tool, util::Rng rng) {
  nodes_.push_back(std::make_unique<PavenetNode>(tool, *scheduler_, *world_,
                                                 *channel_, rng, config_));
  return *nodes_.back();
}

void NodeBank::power_on() {
  if (!config_.batch_sampling || !riders_.empty()) {
    for (const auto& node : nodes_) node->power_on();
    return;
  }
  riders_.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    if (node->powered_) continue;
    node->start();
    node->bank_ = this;
    riders_.push_back(node.get());
  }
  if (riders_.empty()) return;
  wake_ = scheduler_->schedule_periodic(
      riders_.front()->window_period(),
      [this] { wake(riders_.data(), riders_.size()); });
}

void NodeBank::power_off() {
  for (const auto& node : nodes_) node->power_off();
}

void NodeBank::leave(PavenetNode& node) noexcept {
  std::erase(riders_, &node);
  if (riders_.empty()) wake_.cancel();
}

void NodeBank::wake(PavenetNode* const* members, std::size_t count) {
  const sim::TimePoint now = members[0]->scheduler_->now();
  // Phase 1: every member's window of hits. A member's synthesis reads
  // only the world and its own Rng, which no vote below writes, so all of
  // it may run first. Idle accelerometer windows queue for the lanes (all
  // of them a whole window under one FirmwareConfig, so one count and one
  // vote); a lane handed back takes the scalar path from its window's
  // start.
  sensors::IdleLane lanes[sensors::kIdleLanes];
  PavenetNode* queued[sensors::kIdleLanes];
  std::size_t pending = 0;
  const auto settle = [&] {
    const std::uint32_t settled =
        pending >= kMinLaneBatch
            ? sensors::settle_idle_windows(
                  lanes, pending, queued[0]->window_count_,
                  queued[0]->config_.vote_threshold - 1)
            : 0;
    for (std::size_t i = 0; i < pending; ++i) {
      queued[i]->window_settled_ = ((settled >> i) & 1u) != 0;
      if (!queued[i]->window_settled_) queued[i]->sample_window();
    }
    pending = 0;
  };
  const bool batch_lanes =
      count >= kMinLaneBatch && sensors::idle_lanes_enabled();
  for (std::size_t m = 0; m < count; ++m) {
    PavenetNode& node = *members[m];
    if (node.gather(now) == 0) continue;
    if (batch_lanes && node.window_idle_) {
      lanes[pending] = node.lane_;
      queued[pending++] = &node;
      if (pending == sensors::kIdleLanes) settle();
    } else {
      node.sample_window();
    }
  }
  settle();
  // Phase 2: samples, votes, EEPROM records and announcements in
  // power-on order, as back-to-back per-node wakes ran them.
  for (std::size_t m = 0; m < count; ++m) members[m]->vote();
}

}  // namespace coreda::pavenet
