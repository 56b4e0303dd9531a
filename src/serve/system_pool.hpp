#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "core/home.hpp"
#include "serve/policy_store.hpp"

namespace coreda::serve {

struct SystemPoolParams {
  /// Warm HomeDeployments — the box's working-set budget. Far fewer than
  /// users: sharding maps user u to slot u % slots.
  std::size_t slots = 4;
  /// Slot i's deployment is built with seed exec::trial_seed(seed, i), so
  /// pool behavior is a pure function of configuration, never of
  /// scheduling.
  std::uint64_t seed = 42;
  /// Template for every slot's deployment (the seed field is overridden
  /// per slot). learn_from_sessions must stay off.
  core::SystemConfig system{};
};

/// A fixed pool of warm single-ADL HomeDeployments shared by many users.
///
/// PR 3 made one warm system serve back-to-back sessions allocation-free
/// and made policy swaps cheap (import_policy); the pool turns that into a
/// multi-tenant tier: each session is checkout -> import the user's table
/// from the store (skipped when the user is already resident) -> run the
/// session. Sessions are read-only: no slot learns from them (§3.2), so
/// the pool never writes a table back; only a retrain changes a user's
/// table. Hit/swap counters expose how well residency tracks the request
/// stream.
///
/// Determinism: users are sharded statically (slot = user % slots), so a
/// slot's session sequence — and therefore every simulated outcome — is a
/// pure function of (params, store contents, request order). The drivers
/// run one trial per slot on the exec pool: any --jobs value produces
/// byte-identical results, only wall-clock differs.
///
/// Thread-safety: calls for users of different slots may run concurrently
/// (disjoint deployments); calls within one slot must be serialized —
/// which the per-slot trial sharding gives for free.
class SystemPool {
 public:
  static constexpr UserId kNoUser = std::numeric_limits<UserId>::max();

  /// Builds every slot warm: a deployment of `adl` seeded per slot.
  /// `store`, `library` and `adl` must outlive the pool. Throws
  /// std::invalid_argument when `params.slots` is 0 or
  /// `params.system.learn_from_sessions` is set: a learning slot would
  /// change a table the pool never stages.
  SystemPool(const PolicyStore& store, SystemPoolParams params,
             const adl::AdlLibrary& library, const adl::Adl& adl);

  std::size_t slots() const noexcept { return slots_.size(); }
  std::size_t slot_for(UserId user) const noexcept {
    return user % slots_.size();
  }

  /// Serves one closed-loop session for `user` on its home slot, capped at
  /// core::kServedSessionCap. The caller owns `result`, which is reused
  /// across calls — at steady state (warm slot, registered user) the whole
  /// serve, including a policy swap, performs zero heap allocations.
  void serve_session(
      UserId user, const patient::PatientProfile& profile,
      const std::function<void(patient::PatientActor&)>& setup,
      core::SessionResult& result);

  /// Drops the user's slot residency so their next session re-imports from
  /// the store. The engine's retrain stage calls this after a retrain job:
  /// residency means "the slot's learner already holds the user's latest
  /// table", which a retrain makes false without the slot ever seeing the
  /// new version. No-op when the user is not resident. Same thread-safety
  /// as serving: calls for users of different slots may run concurrently.
  void invalidate(UserId user);
  /// invalidate() calls that actually dropped a residency.
  std::uint64_t invalidations() const noexcept;

  /// Arms every slot deployment's radio burst chain against `site` (lane =
  /// slot index). Setup phase only.
  void arm_fault_bursts(faults::Site& site) noexcept;

  /// Sessions whose user was already resident on their slot (no import).
  std::uint64_t hits() const noexcept;
  /// Sessions that had to import the user's table from the store.
  std::uint64_t swaps() const noexcept;
  std::uint64_t sessions() const noexcept;

  UserId resident(std::size_t slot) const;
  std::uint64_t slot_sessions(std::size_t slot) const;
  const core::HomeDeployment& system(std::size_t slot) const;

 private:
  struct Slot {
    std::unique_ptr<core::HomeDeployment> system;
    UserId resident = kNoUser;
    std::uint64_t hits = 0;
    std::uint64_t swaps = 0;
    std::uint64_t sessions = 0;
    std::uint64_t invalidations = 0;
  };

  /// Makes `user` resident on `slot`, importing their table on a swap.
  void checkout(UserId user, Slot& slot);

  const PolicyStore* store_;
  std::vector<Slot> slots_;
};

}  // namespace coreda::serve
