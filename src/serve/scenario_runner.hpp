#pragma once

#include <cstdint>

#include "core/home.hpp"
#include "serve/system_pool.hpp"
#include "sim/scenario_dsl.hpp"

namespace coreda::serve {

/// Compiles a scenario plan's part list into the SessionScript every served
/// session plays through (1:1 part mapping; the plan's hint becomes the
/// script hint). Pure data transformation — ADL names are validated later
/// by run_script against the live library.
core::SessionScript compile_script(const sim::ScenarioPlan& plan);

struct ScenarioRunnerParams {
  /// Pool width; scenario users shard to slot = user % slots. One exec
  /// trial per slot keeps any --jobs byte-identical.
  std::size_t slots = 4;
  /// Template for the donor and every slot deployment (the seed comes
  /// from the plan: the donor's is plan.seed, slot i's
  /// exec::trial_seed(plan.seed, i)).
  core::SystemConfig system{};
  /// Tracker parameters for every slot (the serving tier enables
  /// recognition-gated switching here; window 2 / patience 1 announces a
  /// switch on the second consecutive routine-ordered challenger tool).
  recognition::ActivityTracker::Params tracker{
      .switch_window = 2, .switch_threshold = 0.8, .switch_patience = 1};
};

/// Aggregate outcome of one scenario run, summed over every session of
/// every round. All fields are exact integers (plus one order-independent
/// digest), so the regression corpus can gate them with equality.
struct ScenarioSummary {
  std::uint64_t sessions = 0;
  std::uint64_t completed_sessions = 0;
  std::uint64_t segments = 0;
  std::uint64_t segments_completed = 0;
  std::uint64_t prompts = 0;
  std::uint64_t praises = 0;
  std::uint64_t wrong_tool_recoveries = 0;
  std::uint64_t segment_switches = 0;
  std::uint64_t idle_episodes = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_swaps = 0;
  /// Stored policy sets whose record failed validation at restore and were
  /// served as the donor baseline instead (the runner's store is
  /// memory-only, so 0; BENCH_scenarios.json keys it rejected_bundles).
  std::uint64_t rejected_records = 0;
  /// Wrapping sum of per-session digests (user, round, and every counter
  /// above plus elapsed time mixed through SplitMix64) — order-independent,
  /// so identical at any --jobs, yet sensitive to any behavioural change in
  /// any session.
  std::uint64_t checksum = 0;

  double completion_rate() const noexcept {
    return sessions == 0
               ? 0.0
               : static_cast<double>(completed_sessions) /
                     static_cast<double>(sessions);
  }
  double prompts_per_session() const noexcept {
    return sessions == 0 ? 0.0
                         : static_cast<double>(prompts) /
                               static_cast<double>(sessions);
  }
};

/// Executes a scenario plan against a SystemPool of whole-home slots:
/// `plan.users` users play the compiled script for `plan.rounds` rounds,
/// with per-round severity drift, compliance decay, and the plan's arrival
/// pattern. One donor HomeDeployment trains recognition and every ADL's
/// planner once; each slot adopts the donor's recognizer, and every user
/// starts from the donor's planners. Each user's policy set persists across
/// rounds through a memory-only PolicyStore, so round r+1 serves the
/// policies round r staged — drift meets adaptation, as in the paper's
/// multi-week deployments.
///
/// Determinism: one exec trial per pool slot; slot s serves exactly the
/// users with u % slots == s in (round, arrival-order) order, and every
/// source of variation — per-user severity offset, per-session actor
/// randomness — derives from plan.seed. run(plan, 1) and run(plan, 8)
/// return identical summaries, bit for bit. One exec::TrialRunner of `jobs`
/// jobs (0 = hardware) replays the donor's pretraining and runs the slot
/// trials, so a run starts at most `jobs` workers and none at jobs = 1.
class ScenarioRunner {
 public:
  explicit ScenarioRunner(ScenarioRunnerParams params = {});

  ScenarioSummary run(const sim::ScenarioPlan& plan,
                      std::size_t jobs = 1) const;

 private:
  ScenarioRunnerParams params_;
};

/// The per-scenario metric block printed by bench_scenario_corpus, `coreda
/// scenario run`, and golden-compared by the corpus regression test. Exact
/// integers plus hexfloat derived rates (every bit gates) and the hex
/// checksum — byte-identical at any --jobs by the runner's contract.
std::string format_scenario_report(std::string_view name,
                                   const sim::ScenarioPlan& plan,
                                   const ScenarioSummary& sum);

}  // namespace coreda::serve
