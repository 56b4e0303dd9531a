#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/home.hpp"
#include "sim/scenario_dsl.hpp"

namespace coreda::serve {

/// Compiles a scenario plan's part list into the SessionScript every served
/// session plays through (1:1 part mapping; the plan's hint becomes the
/// script hint). Pure data transformation — ADL names are validated later
/// by run_script against the live library.
core::SessionScript compile_script(const sim::ScenarioPlan& plan);

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
  /// Always 0: a scenario run reads no stored policy, so no record can be
  /// rejected. The field stays so the report line and
  /// BENCH_scenarios.json's EQUALITY-gated rejected_bundles keep their
  /// shape.
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

/// Executes a scenario plan on 4 whole-home slots: `plan.users` users play
/// the compiled script for `plan.rounds` rounds, with per-round severity
/// drift, compliance decay, and the plan's arrival pattern. One donor
/// HomeDeployment (seed plan.seed) trains recognition and every ADL's
/// planner once; slot i (seed exec::trial_seed(plan.seed, i)) adopts the
/// donor's recognizer, turns on recognition-gated switching (window 2,
/// threshold 0.8, patience 1: a switch is announced on the second
/// consecutive routine-ordered challenger tool) and imports the donor's
/// planners. A whole home does not learn from its sessions, so every user
/// is served the donor's planners in every round; what drifts is the
/// resident, not the policy.
///
/// User u is served on slot u % 4. A slot keeps one resident user: a
/// session whose user is already resident counts as a pool hit, any other
/// as a swap (so each slot's first session is a swap).
///
/// Determinism: one exec trial per slot; slot s serves exactly its users in
/// (round, arrival-order) order, and every source of variation — per-user
/// severity offset, per-session actor randomness — derives from plan.seed.
/// run_scenario(plan, 1) and run_scenario(plan, 8) return identical
/// summaries, bit for bit. One exec::TrialRunner of `jobs` jobs
/// (0 = hardware) replays the donor's pretraining and runs the slot trials,
/// so a run starts at most `jobs` workers and none at jobs = 1.
ScenarioSummary run_scenario(const sim::ScenarioPlan& plan,
                             std::size_t jobs = 1);

/// The per-scenario metric block printed by bench_scenario_corpus, `coreda
/// scenario run`, and golden-compared by the corpus regression test. Exact
/// integers plus hexfloat derived rates (every bit gates) and the hex
/// checksum — byte-identical at any --jobs by run_scenario's contract.
std::string format_scenario_report(std::string_view name,
                                   const sim::ScenarioPlan& plan,
                                   const ScenarioSummary& sum);

}  // namespace coreda::serve
