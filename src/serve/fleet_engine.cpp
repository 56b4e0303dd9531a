#include "serve/fleet_engine.hpp"

#include <charconv>
#include <chrono>
#include <ostream>
#include <stdexcept>
#include <thread>

namespace coreda::serve {

namespace {

std::uint64_t session_checksum(const core::SessionResult& r) {
  std::uint64_t sum = r.prompts_total + r.steps_completed;
  for (const adl::StepId id : r.observed_steps) sum += id;
  return sum;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

FleetEngine::FleetEngine(const adl::AdlLibrary& library, const adl::Adl& adl,
                         SegmentStore& store, const rl::QTable& reference,
                         FleetEngineParams params)
    : params_(params), store_(&store), reference_(&reference) {
  if (params_.shards == 0 || params_.slots_per_shard == 0) {
    throw std::invalid_argument("FleetEngine: shards and slots_per_shard "
                                "must be >= 1");
  }
  if (store.writers() != params_.shards) {
    throw std::invalid_argument(
        "FleetEngine: store.writers() must equal shards — the lock-free "
        "writer partitioning holds only when shard threads own disjoint "
        "segment chains");
  }
  if (reference.num_states() != store.num_states() ||
      reference.num_actions() != store.num_actions()) {
    throw std::invalid_argument(
        "FleetEngine: reference table shape differs from the store schema");
  }
  shards_.reserve(params_.shards);
  for (std::size_t sh = 0; sh < params_.shards; ++sh) {
    shards_.emplace_back(reference.num_states(), reference.num_actions());
    Shard& shard = shards_.back();
    shard.slots.resize(params_.slots_per_shard);
    for (std::size_t s = 0; s < params_.slots_per_shard; ++s) {
      core::SystemConfig config = params_.system;
      config.seed =
          exec::trial_seed(params_.seed, sh * params_.slots_per_shard + s);
      shard.slots[s].system =
          std::make_unique<core::HomeDeployment>(library, adl, config);
      shard.slots[s].system->import_policy(reference);
    }
    shard.result.observed_steps.reserve(core::kMaxSessionSteps);
  }
}

void FleetEngine::reserve_users(std::uint64_t users) {
  packed_.reserve(static_cast<std::size_t>(users));
  store_->reserve_users(users);
}

std::uint64_t FleetEngine::register_user(double severity) {
  const std::uint64_t user = packed_.size();
  packed_.push_back(quantize_severity(severity));
  // The store index is reserved ahead by reserve_users(); this keeps the
  // contract when a caller registers past the reservation.
  store_->reserve_users(packed_.size());
  return user;
}

void FleetEngine::enqueue(std::uint64_t user) {
  if (user >= packed_.size()) {
    throw std::out_of_range("FleetEngine::enqueue: unknown user id " +
                            std::to_string(user));
  }
  shards_[shard_for(user)].queue.push_back(user);
}

std::size_t FleetEngine::queued() const noexcept {
  std::size_t total = 0;
  for (const Shard& sh : shards_) total += sh.queue.size();
  return total;
}

std::uint64_t FleetEngine::version(std::uint64_t user) const {
  if (user >= packed_.size()) {
    throw std::out_of_range("FleetEngine::version: unknown user id " +
                            std::to_string(user));
  }
  // Both halves advance together: a session bumps the unwritten count, an
  // append moves those sessions into the stored version.
  return store_->latest_version(user).value_or(0) +
         unflushed_count(packed_[user]);
}

double FleetEngine::prompt_ewma(std::uint64_t user) const {
  if (user >= packed_.size()) {
    throw std::out_of_range("FleetEngine::prompt_ewma: unknown user id " +
                            std::to_string(user));
  }
  const std::uint32_t packed = packed_[user];
  if (!(packed & kPrimedBit)) return 0.0;
  return static_cast<double>((packed >> 16) & 0xFF) / 8.0;
}

void FleetEngine::append_user(Shard& sh, const Slot& slot,
                              std::uint64_t user) {
  std::uint32_t& packed = packed_[user];
  const std::uint64_t version =
      store_->latest_version(user).value_or(0) + unflushed_count(packed);
  try {
    store_->append(user, slot.system->learner().q(), version);
  } catch (const faults::InjectedCrash&) {
    // An injected crash aborts the append exactly like a power cut: the
    // store keeps its committed prefix, the unflushed count stays, and a
    // later write-back (or flush_residents) retries at a higher version.
    ++sh.crashed_appends;
    return;
  }
  packed &= ~kUnflushedMask;
  ++sh.appends;
}

void FleetEngine::serve_one(Shard& sh, std::uint64_t user) {
  // Node dropout: the user's node never came up for this session. Keyed on
  // the shard-serial attempt counter, so the schedule is a pure function of
  // the enqueue history at any --jobs.
  ++sh.attempts;
  if (dropout_site_.should_inject(user, sh.attempts)) {
    ++sh.dropped;
    return;
  }
  const std::uint64_t t0 = now_ns();
  Slot& slot = sh.slots[slot_in_shard(user)];
  if (slot.resident != user) {
    // Never lose an evicted user's learned updates: append before the slot
    // is repurposed (no-op wear-wise when nothing is unwritten).
    if (slot.resident != kNoUser && unflushed_count(packed_[slot.resident]) > 0) {
      append_user(sh, slot, slot.resident);
    }
    if (store_->load(user, sh.scratch_q).has_value()) {
      slot.system->import_policy(sh.scratch_q);
      ++sh.cold_loads;
    } else {
      slot.system->import_policy(*reference_);
      ++sh.reference_starts;
    }
    slot.resident = user;
  } else {
    ++sh.pool_hits;
  }
  char name[24] = {'U'};
  const auto [end, ec] = std::to_chars(name + 1, name + sizeof name, user);
  sh.profile.name.assign(name, static_cast<std::size_t>(end - name));
  std::uint32_t& packed = packed_[user];
  sh.profile.apply_severity(severity_of(packed));
  slot.system->run_session_inplace(sh.profile, params_.session_cap, {},
                                   sh.result);
  // One more session not yet in the store — the derived version advances.
  const std::uint32_t unflushed = unflushed_count(packed) + 1;
  packed = (packed & ~kUnflushedMask) | (unflushed << 8);
  // Drift EWMA over prompts/session in 5.3 fixed point: q' = q + (x - q)/8.
  // Integer truncation stalls within 7/8 of a prompt of the true mean —
  // well inside the threshold's resolution.
  const auto x8 = static_cast<std::uint32_t>(
      sh.result.prompts_total >= 31 ? 255 : sh.result.prompts_total * 8);
  std::uint32_t q = (packed >> 16) & 0xFF;
  if (packed & kPrimedBit) {
    q = static_cast<std::uint32_t>(
        static_cast<std::int32_t>(q) +
        (static_cast<std::int32_t>(x8) - static_cast<std::int32_t>(q)) / 8);
  } else {
    q = x8;
  }
  packed = (packed & ~kEwmaMask) | (q << 16) | kPrimedBit;
  if (static_cast<double>(q) / 8.0 >= params_.drift_threshold) {
    ++sh.drift_flagged;
  }
  if ((params_.write_back_every != 0 &&
       unflushed >= params_.write_back_every) ||
      unflushed == 255) {  // counter saturation: the append is forced
    append_user(sh, slot, user);
  }
  ++sh.sessions;
  sh.completed += sh.result.completed ? 1 : 0;
  sh.prompts += sh.result.prompts_total;
  sh.checksum += (user + 1) * session_checksum(sh.result);
  sh.latency.record(now_ns() - t0);
}

FleetReport FleetEngine::drain(exec::TrialRunner& runner) {
  ++drains_;
  runner.run(shards_.size(), params_.seed,
             [&](exec::TrialContext& ctx) -> char {
               Shard& sh = shards_[ctx.index];
               // Stalled shard: an injected scheduling delay at drain start.
               // Wall-clock only — it moves the latency histogram (a timing
               // side-channel), never the served results.
               const std::uint64_t stall =
                   stall_site_.stall_ns(ctx.index, drains_);
               if (stall != 0) {
                 std::this_thread::sleep_for(std::chrono::nanoseconds(stall));
               }
               for (const std::uint64_t user : sh.queue) serve_one(sh, user);
               sh.queue.clear();
               return 0;  // results land in the shard (disjoint per trial)
             });
  FleetReport report;
  for (const Shard& sh : shards_) {
    for (const Slot& slot : sh.slots) {
      report.radio_lost_frames += slot.system->channel().stats().lost_fault;
    }
    report.dropped_sessions += sh.dropped;
    report.crashed_appends += sh.crashed_appends;
    report.sessions += sh.sessions;
    report.completed += sh.completed;
    report.prompts += sh.prompts;
    report.checksum += sh.checksum;
    report.pool_hits += sh.pool_hits;
    report.cold_loads += sh.cold_loads;
    report.reference_starts += sh.reference_starts;
    report.appends += sh.appends;
    report.drift_flagged += sh.drift_flagged;
    report.latency.merge(sh.latency);
  }
  return report;
}

void FleetEngine::reset_latency() {
  for (Shard& sh : shards_) sh.latency.reset();
}

void FleetEngine::attach_faults(faults::Injector& injector) {
  injector.attach(stall_site_);
  injector.attach(dropout_site_);
  injector.attach(radio_site_);
  store_->attach_faults(injector);
  for (std::size_t sh = 0; sh < shards_.size(); ++sh) {
    for (std::size_t s = 0; s < shards_[sh].slots.size(); ++s) {
      shards_[sh].slots[s].system->channel_mut().arm_fault_burst(
          radio_site_, sh * params_.slots_per_shard + s);
    }
  }
}

void FleetEngine::flush_residents() {
  for (Shard& sh : shards_) {
    for (const Slot& slot : sh.slots) {
      if (slot.resident != kNoUser &&
          unflushed_count(packed_[slot.resident]) > 0) {
        append_user(sh, slot, slot.resident);
      }
    }
  }
}

void FleetEngine::dump_policies(std::ostream& out) const {
  rl::QTable q(reference_->num_states(), reference_->num_actions());
  out << std::hexfloat;
  for (std::uint64_t user = 0; user < packed_.size(); ++user) {
    const std::optional<std::uint64_t> version = store_->load(user, q);
    if (!version) continue;
    out << "user " << user << " v" << *version;
    for (std::size_t s = 0; s < q.num_states(); ++s) {
      for (const double v : q.row(static_cast<rl::StateId>(s))) {
        out << ' ' << v;
      }
    }
    out << '\n';
  }
  out << std::defaultfloat;
}

}  // namespace coreda::serve
