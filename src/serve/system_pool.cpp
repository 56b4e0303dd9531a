#include "serve/system_pool.hpp"

#include <stdexcept>

#include "exec/trial_runner.hpp"

namespace coreda::serve {

SystemPool::SystemPool(const PolicyStore& store, SystemPoolParams params,
                       const adl::AdlLibrary& library, const adl::Adl& adl)
    : store_(&store) {
  if (params.slots == 0) {
    throw std::invalid_argument("SystemPool: slots must be >= 1");
  }
  if (params.system.learn_from_sessions) {
    throw std::invalid_argument(
        "SystemPool: sessions are read-only, so learn_from_sessions must be "
        "off");
  }
  slots_.reserve(params.slots);
  for (std::size_t i = 0; i < params.slots; ++i) {
    core::SystemConfig config = params.system;
    config.seed = exec::trial_seed(params.seed, i);
    Slot slot;
    slot.system = std::make_unique<core::HomeDeployment>(library, adl, config);
    slots_.push_back(std::move(slot));
  }
}

void SystemPool::checkout(UserId user, Slot& slot) {
  if (slot.resident == user) {
    // The slot's learner already holds this user's latest table (sessions
    // never change it, and a retrain drops the residency), so the checkout
    // is free.
    ++slot.hits;
    return;
  }
  slot.system->import_policy(store_->q(user));
  slot.resident = user;
  ++slot.swaps;
}

void SystemPool::serve_session(
    UserId user, const patient::PatientProfile& profile,
    const std::function<void(patient::PatientActor&)>& setup,
    core::SessionResult& result) {
  Slot& slot = slots_[slot_for(user)];
  checkout(user, slot);
  slot.system->run_session_inplace(profile, core::kServedSessionCap, setup,
                                   result);
  ++slot.sessions;
}

void SystemPool::arm_fault_bursts(faults::Site& site) noexcept {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].system->channel_mut().arm_fault_burst(site, i);
  }
}

void SystemPool::invalidate(UserId user) {
  Slot& slot = slots_[slot_for(user)];
  if (slot.resident == user) {
    slot.resident = kNoUser;
    ++slot.invalidations;
  }
}

std::uint64_t SystemPool::invalidations() const noexcept {
  std::uint64_t total = 0;
  for (const Slot& s : slots_) total += s.invalidations;
  return total;
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
