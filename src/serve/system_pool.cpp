#include "serve/system_pool.hpp"

#include <stdexcept>

#include "exec/trial_runner.hpp"

namespace coreda::serve {

SystemPool::SystemPool(const adl::AdlLibrary& library, const adl::Adl& adl,
                       PolicyStore& store, SystemPoolParams params)
    : store_(&store) {
  if (params.slots == 0) {
    throw std::invalid_argument("SystemPool: slots must be >= 1");
  }
  slots_.reserve(params.slots);
  for (std::size_t i = 0; i < params.slots; ++i) {
    core::SystemConfig config = params.system;
    config.seed = exec::trial_seed(params.seed, i);
    Slot slot;
    slot.system =
        std::make_unique<core::HomeDeployment>(library, adl, config);
    slots_.push_back(std::move(slot));
  }
}

void SystemPool::serve_session(
    UserId user, const patient::PatientProfile& profile,
    sim::Duration max_duration,
    const std::function<void(patient::PatientActor&)>& setup,
    core::SessionResult& result) {
  Slot& slot = slots_[slot_for(user)];
  if (slot.resident == user) {
    // The slot's learner already holds this user's latest table (every
    // session stages back on its way out), so the checkout is free.
    ++slot.hits;
  } else {
    slot.system->import_policy(store_->q(user));
    slot.resident = user;
    ++slot.swaps;
  }
  slot.system->run_session_inplace(profile, max_duration, setup, result);
  // Write-back even when learning is off: the version bump marks the
  // snapshot current, and a user whose next session lands after another
  // tenant evicted them re-imports exactly what they left behind.
  try {
    store_->stage(user, slot.system->learner().q());
  } catch (const faults::InjectedCrash&) {
    // The crash hit the disk flush after stage() already committed the
    // in-memory entry: serving state is intact, persistence retries on a
    // later wear batch — exactly the power-cut contract the crash tests
    // prove.
    ++slot.crashed_stages;
  }
  ++slot.sessions;
}

void SystemPool::arm_fault_bursts(faults::Site& site) noexcept {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].system->channel_mut().arm_fault_burst(site, i);
  }
}

std::uint64_t SystemPool::crashed_stages() const noexcept {
  std::uint64_t total = 0;
  for (const Slot& s : slots_) total += s.crashed_stages;
  return total;
}

void SystemPool::invalidate(UserId user) {
  Slot& slot = slots_[slot_for(user)];
  if (slot.resident == user) {
    slot.resident = kNoUser;
    ++invalidations_;
  }
}

std::uint64_t SystemPool::hits() const noexcept {
  std::uint64_t total = 0;
  for (const Slot& s : slots_) total += s.hits;
  return total;
}

std::uint64_t SystemPool::swaps() const noexcept {
  std::uint64_t total = 0;
  for (const Slot& s : slots_) total += s.swaps;
  return total;
}

std::uint64_t SystemPool::sessions() const noexcept {
  std::uint64_t total = 0;
  for (const Slot& s : slots_) total += s.sessions;
  return total;
}

UserId SystemPool::resident(std::size_t slot) const {
  return slots_.at(slot).resident;
}

std::uint64_t SystemPool::slot_sessions(std::size_t slot) const {
  return slots_.at(slot).sessions;
}

const core::HomeDeployment& SystemPool::system(std::size_t slot) const {
  return *slots_.at(slot).system;
}

}  // namespace coreda::serve
