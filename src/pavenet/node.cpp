#include "pavenet/node.hpp"

namespace coreda::pavenet {

namespace {

ThresholdDetector make_detector(const adl::Tool& tool,
                                const sensors::SensorModel& model,
                                const FirmwareConfig& config) {
  const double threshold = config.excitation_threshold > 0.0
                               ? config.excitation_threshold
                               : model.recommended_threshold();
  (void)tool;
  return ThresholdDetector(threshold, config.vote_window,
                           config.vote_threshold);
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
      config_(config),
      sensor_(sensors::make_sensor_model(tool.sensor)),
      detector_(make_detector(tool, *sensor_, config)),
      led_(scheduler),
      eeprom_(kPavenetHardware.eeprom_bytes) {
  channel_->attach_receiver(
      uid(), [this](const Packet& p) { handle_downlink(p); });
}

void PavenetNode::power_on() {
  if (powered_) return;
  powered_ = true;
  const sim::Duration period = sample_period();
  if (config_.batch_sampling) {
    // Wake once per full vote window; the detector tumbles, so the only
    // instants firmware-visible behavior can change are window boundaries —
    // exactly the wake times. Samples inside the window are synthesized
    // retroactively at their true tick times from the world's history.
    next_sample_time_ = scheduler_->now() + period;
    // A wake (or power_off's flush) covers at most one full window.
    activation_buf_.reserve(config_.vote_window);
    if (!hit_buf_) hit_buf_ = std::make_unique<bool[]>(config_.vote_window);
    const sim::Duration batch = sim::Duration::micros(
        period.total_micros() * static_cast<std::int64_t>(config_.vote_window));
    tick_ = scheduler_->schedule_periodic(batch, [this] { firmware_batch(); });
  } else {
    tick_ = scheduler_->schedule_periodic(period, [this] { firmware_tick(); });
  }
}

void PavenetNode::power_off() {
  if (!powered_) return;
  powered_ = false;
  tick_.cancel();
  if (config_.batch_sampling) {
    // Take the partial window the cancelled wake-up would have covered, so
    // samples() and energy accounting match the per-tick loop exactly.
    synthesize_until(scheduler_->now());
  }
  detector_.reset();
}

void PavenetNode::firmware_tick() {
  const sim::TimePoint now = scheduler_->now();
  process_sample(now, world_->activation(tool_.id, now));
}

void PavenetNode::firmware_batch() { synthesize_until(scheduler_->now()); }

void PavenetNode::synthesize_until(sim::TimePoint limit) {
  if (next_sample_time_ > limit) return;
  const sim::Duration period = sample_period();
  const std::size_t count =
      static_cast<std::size_t>((limit - next_sample_time_).total_micros() /
                               period.total_micros()) +
      1;
  activation_buf_.resize(count);
  world_->activation_block(tool_.id, next_sample_time_, period, count,
                           activation_buf_.data());
  // One virtual dispatch for the whole window. The vote only needs each
  // sample's hit, so the model never finishes samples it can prove idle.
  sensor_->sample_hits(next_sample_time_, period, activation_buf_.data(),
                       count, tool_.usage_intensity, detector_.threshold(),
                       rng_, hit_buf_.get());
  sim::TimePoint at = next_sample_time_;
  for (std::size_t i = 0; i < count; ++i, at = at + period) {
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

}  // namespace coreda::pavenet
