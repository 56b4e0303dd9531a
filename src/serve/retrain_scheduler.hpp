#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/system.hpp"
#include "planning/lane_trainer.hpp"
#include "planning/learner.hpp"
#include "serve/policy_store.hpp"

namespace coreda::serve {

/// Per-user retrain streams are seeded with trial_seed(kRetrainSeed, user),
/// so a user's retrain outcome is a pure function of (their table, their
/// transcripts) — never of which other users were flagged or how many
/// workers drained the engine.
inline constexpr std::uint64_t kRetrainSeed = 515151;

/// Every retrain replays the whole ring this many times, oldest to newest.
/// kTranscriptRingCapacity x kRetrainReplayPasses is the episode budget;
/// A10 (bench_drift_adaptation) puts useful re-convergence at a few dozen
/// episodes from a converged stale table.
inline constexpr std::size_t kRetrainReplayPasses = 8;

/// Sessions a user must serve after a retrain before they may be retrained
/// again — gives the refreshed policy time to move the EWMA (and fresh
/// transcripts time to displace pre-retrain ones).
inline constexpr std::size_t kRetrainCooldownSessions = 4;

/// Recent completed-session transcripts kept per user; the oldest is
/// evicted first. Each ring slot is core::kMaxSessionSteps wide, the
/// session recorder's own bound, and longer transcripts are truncated.
inline constexpr std::size_t kTranscriptRingCapacity = 8;

/// A user is retrained only once their ring holds at least this many
/// transcripts — retraining on one bad day is how a planner learns the
/// mistakes the paper warns about (§3.2).
inline constexpr std::size_t kRetrainMinTranscripts = 4;

/// Cumulative retraining counters, reported through the ServeReport.
struct RetrainCounters {
  std::uint64_t jobs = 0;      ///< retrain jobs executed
  std::uint64_t episodes = 0;  ///< transcript replays fed to the trainers
  std::uint64_t aborted = 0;   ///< jobs killed by "retrain.abort" before
                               ///< staging (retried after the cooldown)
  std::uint64_t crashed_stages = 0;  ///< stages whose append an injected
                                     ///< crash aborted (memory state kept;
                                     ///< the append is retried by a flush)
};

/// The retrain stage behind ServeEngine::drain: per-user transcript rings
/// and one warm replay trainer per pool slot.
///
/// The engine records every completed session's StepId transcript into the
/// user's provisioned ring (zero allocations at steady state). Each slot
/// trial of a drain, once it has served its requests, retrains its due
/// users through retrain_user(): the job re-arms the slot's warm width-1
/// planning::LaneTrainer on the user's current PolicyStore table
/// (begin_retraining: import + reseed + ε restart), replays the ring
/// through it one episode per round, and stages the refreshed table
/// straight back — a new version, appended at once when the store is
/// segment-backed. The trainer is byte-identical to a RoutineLearner that
/// ran begin_retraining and the same replay.
///
/// Thread-safety mirrors the serving tier: record() and retrain_user()
/// calls for users of different slots (`user % slots`) may run
/// concurrently — disjoint rings, trainers, counters and store entries.
class RetrainScheduler {
 public:
  /// `adl` and `store` must outlive the scheduler. One warm trainer per
  /// slot is built up front with `learner_config` — the same config the
  /// serving systems plan with, so a retrained table prices prompts
  /// exactly like the tables it replaces.
  RetrainScheduler(const adl::Adl& adl, PolicyStore& store,
                   planning::LearnerConfig learner_config,
                   std::size_t slots);

  /// Registers the next user (ids must track the engine's — append-only,
  /// setup phase) and provisions their transcript ring.
  void add_user();
  std::size_t num_users() const noexcept { return rings_.size(); }

  /// Records one completed session's step trace into the user's ring,
  /// evicting the oldest transcript when full. Steps beyond
  /// core::kMaxSessionSteps are dropped. Allocation-free.
  void record(UserId user, std::span<const adl::StepId> steps);

  /// Transcripts currently held for the user (<= kTranscriptRingCapacity).
  std::size_t transcripts(UserId user) const;
  /// The i-th retained transcript, oldest first.
  std::span<const adl::StepId> transcript(UserId user, std::size_t i) const;

  /// Whether the user's ring is deep enough to retrain from.
  bool has_enough_transcripts(UserId user) const {
    return transcripts(user) >= kRetrainMinTranscripts;
  }

  /// Runs one retrain job for `user` on the calling thread, on the
  /// trainer of the user's slot, and counts it (an aborted job too).
  /// Allocation-free once the slot's trainer is warm. Returns the
  /// episodes replayed.
  std::size_t retrain_user(UserId user);

  /// Cumulative counters, summed over the slots.
  RetrainCounters counters() const noexcept;

  /// Arms the scheduler's "retrain.abort" seam: a planned abort kills a
  /// retrain job after replay but before the refreshed table is staged —
  /// the user keeps their stale policy and the drift flag, and the engine's
  /// cooldown retries the job on a later drain. Keyed per (user, attempt
  /// counter), so the schedule does not depend on who else retrains.
  void attach_faults(faults::Injector& injector) {
    injector.attach(abort_site_);
  }

 private:
  /// Fixed-slot transcript ring: kTranscriptRingCapacity x
  /// core::kMaxSessionSteps StepIds in one flat buffer, lengths alongside.
  /// head is the next slot to write.
  struct Ring {
    std::vector<adl::StepId> data;
    std::vector<std::uint32_t> lengths;
    std::size_t head = 0;
    std::size_t count = 0;
  };

  /// What one pool slot's trial retrains with; only that trial touches it.
  struct Slot {
    /// Width-1 replay trainer, pre-sized to core::kMaxSessionSteps so a
    /// warm retrain never allocates.
    std::unique_ptr<planning::LaneTrainer> trainer;
    /// Scatter target reused across jobs so staging stays allocation-free.
    std::unique_ptr<rl::QTable> scratch;
    RetrainCounters counters;
  };

  Ring& ring(UserId user);
  const Ring& ring(UserId user) const;

  /// Stages `q` back for `user` unless an injected abort intervenes; a
  /// crashed append keeps the staged entry. Both are counted on `slot`.
  void stage_retrained(UserId user, const rl::QTable& q, Slot& slot);

  PolicyStore* store_;
  std::vector<Ring> rings_;  // by UserId
  std::vector<Slot> slots_;
  faults::Site abort_site_{"retrain.abort"};
  std::vector<std::uint32_t> attempts_;  ///< per-user abort decision tick
};

}  // namespace coreda::serve
