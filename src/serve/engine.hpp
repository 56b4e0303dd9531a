#pragma once

#include <cstdint>
#include <vector>

#include "exec/trial_runner.hpp"
#include "patient/profile.hpp"
#include "serve/retrain_scheduler.hpp"
#include "serve/system_pool.hpp"

namespace coreda::serve {

/// EWMA weight of the newest session in the drift detector's
/// prompts-per-session average (ewma += alpha * (x - ewma); the first
/// session seeds the average).
inline constexpr double kPromptEwmaAlpha = 0.3;

/// Sessions a user must have served before the drift flag may fire — a
/// single bad day is not drift.
inline constexpr std::size_t kDriftWarmupSessions = 3;

/// Prompt-rate drift detection (ROADMAP "drift re-learning").
///
/// A converged policy prompts rarely; a routine that drifted away from the
/// trained one makes the planner prompt at the wrong moments and the
/// re-prompt escalation kicks in — prompts per session spike. The engine
/// tracks an EWMA of prompts-per-session per user and marks the user
/// `needs_retraining` once it crosses the threshold after the
/// kDriftWarmupSessions warm-up. The flag feeds the drain's retrain stage
/// and clears once the post-retrain EWMA drops back below the threshold.
struct DriftConfig {
  /// Prompts-per-session EWMA at or above this flags the user.
  double threshold = 6.0;
};

struct ServeEngineParams {
  SystemPoolParams pool{};
  DriftConfig drift{};
};

/// Per-user serving metrics, persistent across drains (the EWMA must see a
/// user's whole history, not one batch).
struct ServeUserStats {
  std::uint64_t sessions = 0;
  std::uint64_t completed = 0;
  std::uint64_t prompts = 0;
  double prompt_ewma = 0.0;
  bool needs_retraining = false;
  /// Retrained, EWMA not yet back under the threshold. While set, the
  /// needs_retraining flag stays up but no further retrain runs (beyond
  /// the cooldown) — the refreshed policy gets its chance first.
  bool awaiting_recovery = false;
  /// Retrain jobs executed for this user.
  std::uint64_t retrains = 0;
  /// sessions count when the last retrain ran (cooldown anchor).
  std::uint64_t last_retrain_session = 0;
  /// Order-independent digest of this user's session outcomes (steps,
  /// prompts) — the cross---jobs determinism witness.
  std::uint64_t checksum = 0;
};

struct ServeReport {
  std::uint64_t sessions = 0;
  std::uint64_t completed = 0;
  std::uint64_t prompts = 0;
  std::uint64_t checksum = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t policy_swaps = 0;
  std::size_t flagged_users = 0;  ///< users currently marked needs_retraining
  RetrainCounters retrain;        ///< cumulative retrain counters
  std::vector<ServeUserStats> users;
};

/// The multi-tenant serving frontend: a queue of per-user session requests
/// drained through the SystemPool across the exec thread pool.
///
/// Requests are sharded by the user's home slot and each slot is one
/// TrialRunner trial, so a drain is byte-identical at any --jobs — the
/// TrialRunner determinism argument lifted one layer up (slots play the
/// role trials played in the benches; users within a slot are served in
/// enqueue order). The same trial then runs the slot's retrain stage, so a
/// drain is one fan-out.
class ServeEngine {
 public:
  /// `library`, `adl` and `store` must outlive the engine. Throws
  /// std::invalid_argument when `store` is segment-backed with a writer
  /// count other than `params.pool.slots`, or when the pool refuses
  /// `params.pool` (see SystemPool).
  ServeEngine(const adl::AdlLibrary& library, const adl::Adl& adl,
              PolicyStore& store, ServeEngineParams params = {});

  /// Registers a user (must already exist in — or is added to — the store;
  /// see implementation) with the profile their sessions will simulate,
  /// which carries their name. Setup-phase only, like
  /// PolicyStore::add_user.
  UserId add_user(patient::PatientProfile profile);

  /// Queues `sessions` session requests for the user — bucketed straight
  /// onto the user's home slot, so a drain never redistributes (and never
  /// allocates once the per-slot buckets are warm).
  void enqueue(UserId user, std::size_t sessions = 1);
  std::size_t queued() const noexcept;

  /// Serves every queued request and closes the loop in the same slot
  /// trial: once a slot has served its requests, its drift-flagged users
  /// with enough transcripts are retrained, in id order, on the slot's
  /// trainer, their refreshed tables staged back through the store and
  /// their slot residency invalidated so the next session serves the new
  /// version. Returns the cumulative report.
  /// Deterministic for a given engine configuration and enqueue history at
  /// any runner job count.
  ServeReport drain(exec::TrialRunner& runner);

  const SystemPool& pool() const noexcept { return pool_; }
  const PolicyStore& store() const noexcept { return *store_; }

  /// Arms the serving tier's fault seams against `injector`'s plan: slot
  /// stalls ("serve.stall"), the store's crash/corruption sites, the
  /// retrainer's abort seam, and every pool system's radio burst chain
  /// ("radio.loss_burst"). Setup phase or between drains only.
  void attach_faults(faults::Injector& injector);
  const ServeUserStats& user_stats(UserId user) const;
  const ServeEngineParams& params() const noexcept { return params_; }

 private:
  struct Request {
    UserId user;
    std::size_t sessions;
  };

  void serve_one(UserId user, core::SessionResult& result);
  /// Whether the user should be retrained this drain.
  bool retrain_due(UserId user) const;
  /// The drain's retrain stage for one slot's users (run by that slot's
  /// trial, after its serving).
  void retrain_stage(std::size_t slot);

  ServeEngineParams params_;
  PolicyStore* store_;
  SystemPool pool_;
  RetrainScheduler retrainer_;
  std::vector<patient::PatientProfile> profiles_;  // by UserId
  std::vector<ServeUserStats> stats_;              // by UserId
  /// Request queue, bucketed by home slot at enqueue time. Buckets keep
  /// their capacity across drains.
  std::vector<std::vector<Request>> by_slot_;
  /// Per-slot session scratch, pre-provisioned at construction so even a
  /// slot's first session of a drain records allocation-free.
  std::vector<core::SessionResult> results_;
  faults::Site stall_site_{"serve.stall"};
  faults::Site radio_site_{"radio.loss_burst"};
  std::uint64_t drains_ = 0;  ///< stall decision tick
};

}  // namespace coreda::serve
