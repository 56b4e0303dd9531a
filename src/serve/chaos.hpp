#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "adl/library.hpp"
#include "exec/trial_runner.hpp"
#include "faults/faults.hpp"
#include "planning/learner.hpp"
#include "serve/arrivals.hpp"
#include "serve/engine.hpp"
#include "serve/fleet_engine.hpp"

namespace coreda::serve {

/// Chaos-soak harnesses: the standard way to run the serving tiers under a
/// faults::FaultPlan and *prove* the crash-consistency story round by
/// round, shared by bench_chaos_soak, `coreda faults replay` and the chaos
/// tests so all three exercise one code path.
///
/// Two soaks mirror the two serving tiers:
///   * ChaosFleetSoak  — FleetEngine over the mmap SegmentStore: crashed
///     and corrupted appends, node dropouts, shard stalls, radio bursts.
///     Invariants checked after EVERY round: no committed version ever
///     regresses, and a fresh store opened on the same directory recovers
///     exactly the live store's view (longest valid prefix).
///   * ChaosServeSoak  — the ServeEngine drift -> retrain -> recover loop:
///     drifted users on stale tables must still be flagged, retrained
///     (through injected aborts and crashed flushes) and recover, and the
///     PolicyStore directory must restore to the flushed versions. It is
///     the one implementation of that loop: bench_retrain_recovery and
///     `coreda retrain` run it too, with an empty plan on a memory-only
///     store.
///
/// Both run `chaos_rounds` rounds inside the plan's fault window followed
/// by `tail_rounds` clean rounds (the injector epoch advances once per
/// round; FaultPlan::standard_chaos windows every site to
/// [0, chaos_rounds)), so the soak also proves the system *settles*: the
/// fleet soak ends with a steady-state allocation probe that must read 0.
///
/// Determinism: every result field except the wall-clock `serve_seconds`
/// is byte-identical at any TrialRunner job count — fault decisions are
/// pure (site stream, user, tick) hashes and the engines shard statically.

// ---------------------------------------------------------------------------
// Fleet tier soak

struct ChaosFleetParams {
  std::size_t users = 512;
  /// Sessions enqueued per round from a Zipf arrival stream.
  std::size_t active = 192;
  /// Rounds served inside the fault window (epochs [0, chaos_rounds)).
  std::size_t chaos_rounds = 6;
  /// Clean rounds after the window closes — recovery + settle phase.
  std::size_t tail_rounds = 2;
  std::size_t shards = 4;
  std::size_t slots_per_shard = 2;
  std::size_t write_back_every = 1;
  /// Short chains force compactions (and their rebase crash seam) during
  /// the soak instead of after it.
  std::size_t rebase_every = 8;
  double zipf = 1.1;
  /// Segment store directory (required; wiped on construction).
  std::string dir;
  /// Monotonic count of global operator-new calls, read around the
  /// steady-state probe. The library never replaces the allocator itself:
  /// a binary that wants the probe includes util/alloc_counter.hpp and
  /// passes util::allocation_count. Unset, the probe reports NaN.
  std::uint64_t (*allocation_count)() = nullptr;
};

/// Per-round soak log line. Counters prefixed `round_` cover this round
/// only; the rest are cumulative snapshots after the round.
struct ChaosRoundStats {
  std::uint64_t epoch = 0;     ///< injector epoch the round served under
  std::uint64_t sessions = 0;  ///< cumulative sessions served
  std::uint64_t dropped = 0;   ///< cumulative injected node dropouts
  std::uint64_t crashed_appends = 0;   ///< cumulative crashed store appends
  std::uint64_t radio_lost = 0;        ///< cumulative burst-lost frames
  std::uint64_t committed_users = 0;   ///< users with a stored record
  std::uint64_t round_versions_lost = 0;      ///< committed version regressed
  std::uint64_t round_reopen_mismatches = 0;  ///< reopen view != live view
  std::uint64_t round_reopen_load_failures = 0;  ///< reopened chain invalid
};

struct ChaosFleetResult {
  FleetReport report;  ///< final cumulative fleet report
  std::vector<ChaosRoundStats> rounds;
  /// Invariant counters, summed over every round's checks. All must be 0;
  /// `invariant_violations` is their sum and is exact-gated at 0.
  std::uint64_t committed_versions_lost = 0;
  std::uint64_t reopen_mismatches = 0;
  std::uint64_t reopen_load_failures = 0;
  std::uint64_t invariant_violations = 0;
  /// Injection totals pulled from the injector log (crash seams fired /
  /// record bytes corrupted) — the proof the soak actually hurt.
  std::uint64_t injected_crashes = 0;
  std::uint64_t injected_corruptions = 0;
  /// Allocations per session over a serial post-soak probe (the fault
  /// window is closed and the fleet warm again: must be 0). NaN when
  /// ChaosFleetParams::allocation_count is unset, so an unmeasured probe
  /// can never pass for a clean one.
  double steady_state_allocs = 0.0;
  /// Drain wall-clock, timing side-channel only — never printed.
  double serve_seconds = 0.0;
};

class ChaosFleetSoak {
 public:
  /// Builds the whole stack (library, donor policy, segment store, fleet
  /// engine) and arms every seam against `plan`. `params.dir` is wiped.
  ChaosFleetSoak(ChaosFleetParams params, faults::FaultPlan plan);
  ~ChaosFleetSoak();

  /// Serves chaos_rounds + tail_rounds rounds, checking the invariants
  /// after each, then runs the steady-state probe. One call per soak.
  ChaosFleetResult run(exec::TrialRunner& runner);

  const faults::Injector& injector() const noexcept { return injector_; }
  const FleetEngine& fleet() const noexcept { return *fleet_; }
  const SegmentStore& store() const noexcept { return *store_; }

 private:
  ChaosRoundStats check_round(ChaosFleetResult& result);

  ChaosFleetParams params_;
  adl::AdlLibrary library_;
  std::vector<adl::StepId> routine_;
  std::unique_ptr<planning::RoutineLearner> donor_;
  std::unique_ptr<SegmentStore> store_;
  std::unique_ptr<FleetEngine> fleet_;
  faults::Injector injector_;
  ZipfianArrivals arrivals_;
  /// Highest committed version ever observed per user (0 = none yet) —
  /// the monotonicity witness.
  std::vector<std::uint64_t> committed_;
  rl::QTable scratch_;  ///< reopen-load target
};

// ---------------------------------------------------------------------------
// Serve tier (drift -> retrain -> recover) soak

struct ChaosServeParams {
  std::size_t users = 24;
  /// Users started on a stale (yesterday's-routine) table, spread every
  /// users/drifted ids. Every one of them must recover by the end of the
  /// soak; 0 serves a calm fleet.
  std::size_t drifted = 6;
  std::size_t slots = 4;
  std::size_t chaos_rounds = 6;
  /// Clean rounds after the fault window — retrains that injected aborts
  /// deferred must land here and close every drift episode.
  std::size_t tail_rounds = 8;
  /// Sessions per user per round.
  std::size_t burst = 2;
  /// Drift threshold splitting the stale band (~4 prompts/session) from
  /// the calm band (~1).
  double threshold = 2.5;
  /// Policy store directory (wiped). A segment store with one writer per
  /// slot, rebase_every=4 and flush_every=1, so the pre-publish/corruption
  /// seams fire on the hot path, not just at teardown. Empty: a
  /// memory-only store, and the reopen check is skipped.
  std::string dir;
};

/// Per-round state of the drift loop, read after the round's drain. The
/// means are 0 over an empty group.
struct ChaosServeRound {
  std::size_t flagged = 0;         ///< users marked needs_retraining
  std::uint64_t retrain_jobs = 0;  ///< cumulative retrain jobs
  double drifted_ewma = 0.0;       ///< drifted users' mean prompt EWMA
  double calm_ewma = 0.0;          ///< the other users' mean prompt EWMA
  /// Drifted users' mean prompts per session in this round.
  double drifted_prompts = 0.0;
  /// Drifted users retrained whose flag is clear now.
  std::size_t recovered_now = 0;
};

struct ChaosServeResult {
  ServeReport report;  ///< final cumulative engine report
  std::vector<ChaosServeRound> rounds;
  std::uint64_t recovered_users = 0;    ///< drift flag cleared post-retrain
  std::uint64_t unrecovered_users = 0;  ///< still flagged at soak end
  /// Max sessions any drifted user took from flag to clear.
  std::uint64_t recovery_sessions_max = 0;
  /// In-memory committed store versions that ever regressed (must be 0).
  std::uint64_t committed_versions_lost = 0;
  /// Users whose reopened store restored a different version than the
  /// live store had flushed.
  std::uint64_t reopen_mismatches = 0;
  std::uint64_t invariant_violations = 0;  ///< sum of the three above
  std::uint64_t aborted_retrains = 0;      ///< injected retrain aborts
  std::uint64_t crashed_stages = 0;        ///< serve-path flushes crashed
  double serve_seconds = 0.0;  ///< wall-clock, side-channel only
};

class ChaosServeSoak {
 public:
  /// Trains the donor and the stale table, builds the store and the engine
  /// with retraining on, and arms every seam against `plan` (an empty plan
  /// arms none). Throws std::invalid_argument when drifted > users.
  ChaosServeSoak(ChaosServeParams params, faults::FaultPlan plan);
  ~ChaosServeSoak();

  /// Serves chaos_rounds + tail_rounds rounds of `burst` sessions per
  /// user, then checks the restart invariant. One call per soak.
  ChaosServeResult run(exec::TrialRunner& runner);

  const faults::Injector& injector() const noexcept { return injector_; }
  const ServeEngine& engine() const noexcept { return *engine_; }
  /// The deployed ADL, today's routine and the donor every calm user
  /// starts from.
  const adl::Adl& adl() const noexcept { return library_.tea_making(); }
  std::span<const adl::StepId> routine() const noexcept { return routine_; }
  const planning::RoutineLearner& donor() const noexcept { return *donor_; }

 private:
  ChaosServeParams params_;
  adl::AdlLibrary library_;
  std::vector<adl::StepId> routine_;
  std::unique_ptr<planning::RoutineLearner> donor_;
  std::unique_ptr<planning::RoutineLearner> stale_;
  std::unique_ptr<PolicyStore> store_;
  std::unique_ptr<ServeEngine> engine_;
  faults::Injector injector_;
  std::vector<bool> is_drifted_;
  std::vector<std::uint64_t> committed_;  ///< per-user version watermark
};

}  // namespace coreda::serve
