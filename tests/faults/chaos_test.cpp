// The chaos-soak harnesses at test scale: a small fleet and a small serve
// loop under FaultPlan::standard_chaos must (a) actually get hurt — crash
// seams fire, records are corrupted, sessions are dropped — (b) hold every
// crash-consistency invariant the bench exact-gates at 0, and (c) produce
// byte-identical results at any TrialRunner job count, which is what makes
// `coreda faults replay --seed=S` a real debugging tool.

#include "serve/chaos.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <numeric>
#include <string>

#include "exec/trial_runner.hpp"
#include "faults/faults.hpp"
// Replaces this test binary's global allocator with a counting one, for
// the fleet soak's steady-state probe.
#include "util/alloc_counter.hpp"

namespace coreda::serve {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/coreda_chaos_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

ChaosFleetParams small_fleet(const std::string& dir) {
  ChaosFleetParams p;
  p.users = 96;
  p.active = 48;
  p.chaos_rounds = 3;
  p.tail_rounds = 1;
  p.shards = 4;
  p.slots_per_shard = 2;
  p.dir = dir;
  p.allocation_count = util::allocation_count;
  return p;
}

ChaosServeParams small_serve(const std::string& dir) {
  ChaosServeParams p;
  p.users = 12;
  p.drifted = 3;
  p.slots = 4;
  p.chaos_rounds = 3;
  p.tail_rounds = 6;
  p.burst = 2;
  p.dir = dir;
  return p;
}

std::uint64_t total_injections(const faults::Injector& injector) {
  std::uint64_t total = 0;
  for (const auto& entry : injector.log()) total += entry.injections;
  return total;
}

void expect_same_rounds(const ChaosFleetResult& a, const ChaosFleetResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    const ChaosRoundStats& ra = a.rounds[i];
    const ChaosRoundStats& rb = b.rounds[i];
    EXPECT_EQ(ra.epoch, rb.epoch) << "round " << i;
    EXPECT_EQ(ra.sessions, rb.sessions) << "round " << i;
    EXPECT_EQ(ra.dropped, rb.dropped) << "round " << i;
    EXPECT_EQ(ra.crashed_appends, rb.crashed_appends) << "round " << i;
    EXPECT_EQ(ra.radio_lost, rb.radio_lost) << "round " << i;
    EXPECT_EQ(ra.committed_users, rb.committed_users) << "round " << i;
  }
}

TEST(ChaosFleetSoak, HoldsInvariantsWhileSeamsFire) {
  ChaosFleetSoak soak(small_fleet(fresh_dir("fleet_inv")),
                      faults::FaultPlan::standard_chaos(7, 3));
  exec::TrialRunner runner(2);
  const ChaosFleetResult result = soak.run(runner);

  // The soak must actually have injected faults: an accidentally inert
  // plan would make the invariant checks vacuous.
  EXPECT_GT(result.injected_crashes, 0u);
  EXPECT_GT(result.injected_corruptions, 0u);
  EXPECT_GT(result.report.dropped_sessions, 0u);
  EXPECT_GT(result.report.radio_lost_frames, 0u);

  // ... and every crash-consistency invariant must still hold.
  EXPECT_EQ(result.committed_versions_lost, 0u);
  EXPECT_EQ(result.reopen_mismatches, 0u);
  EXPECT_EQ(result.reopen_load_failures, 0u);
  EXPECT_EQ(result.invariant_violations, 0u);

  // Round log shape: one entry per round, epochs advancing from 0, the
  // session counter cumulative.
  ASSERT_EQ(result.rounds.size(), 4u);
  for (std::size_t i = 0; i < result.rounds.size(); ++i) {
    EXPECT_EQ(result.rounds[i].epoch, i);
  }
  // Every enqueued session was either served or dropped by an injected
  // dropout; the final report additionally covers the steady-state probe's
  // sessions, so it can only be larger.
  EXPECT_EQ(result.rounds.back().sessions + result.report.dropped_sessions,
            4u * 48u);
  EXPECT_GE(result.report.sessions, result.rounds.back().sessions);

  // The tail round runs with every site's window closed: the cumulative
  // fault counters must not move after the last chaos round.
  const ChaosRoundStats& last_chaos = result.rounds[2];
  const ChaosRoundStats& tail = result.rounds[3];
  EXPECT_EQ(tail.dropped, last_chaos.dropped);
  EXPECT_EQ(tail.crashed_appends, last_chaos.crashed_appends);
  EXPECT_EQ(tail.radio_lost, last_chaos.radio_lost);

  // And with the window closed the fleet settles back onto the
  // steady-state serving path.
  EXPECT_LT(result.steady_state_allocs, 0.1);
}

TEST(ChaosFleetSoak, ResultIsIdenticalAtAnyJobCount) {
  const faults::FaultPlan plan = faults::FaultPlan::standard_chaos(21, 3);
  ChaosFleetSoak serial_soak(small_fleet(fresh_dir("fleet_j1")), plan);
  ChaosFleetSoak parallel_soak(small_fleet(fresh_dir("fleet_j3")), plan);
  exec::TrialRunner serial(1);
  exec::TrialRunner parallel(3);
  const ChaosFleetResult a = serial_soak.run(serial);
  const ChaosFleetResult b = parallel_soak.run(parallel);

  expect_same_rounds(a, b);
  EXPECT_EQ(a.invariant_violations, b.invariant_violations);
  EXPECT_EQ(a.injected_crashes, b.injected_crashes);
  EXPECT_EQ(a.injected_corruptions, b.injected_corruptions);
  EXPECT_EQ(a.report.sessions, b.report.sessions);
  EXPECT_EQ(a.report.dropped_sessions, b.report.dropped_sessions);
  EXPECT_EQ(a.report.crashed_appends, b.report.crashed_appends);
  EXPECT_EQ(a.report.radio_lost_frames, b.report.radio_lost_frames);

  // The full injector logs agree site by site — the replay contract.
  const auto log_a = serial_soak.injector().log();
  const auto log_b = parallel_soak.injector().log();
  ASSERT_EQ(log_a.size(), log_b.size());
  for (std::size_t i = 0; i < log_a.size(); ++i) {
    EXPECT_EQ(log_a[i].name, log_b[i].name);
    EXPECT_EQ(log_a[i].armed, log_b[i].armed);
    EXPECT_EQ(log_a[i].evaluations, log_b[i].evaluations) << log_a[i].name;
    EXPECT_EQ(log_a[i].injections, log_b[i].injections) << log_a[i].name;
  }
}

TEST(ChaosFleetSoak, UnwiredAllocationProbeReportsNaN) {
  // Without a counter the probe must not read as a clean 0, and it must
  // not change what the soak serves.
  ChaosFleetParams params = small_fleet(fresh_dir("fleet_nan"));
  params.allocation_count = nullptr;
  ChaosFleetSoak soak(params, faults::FaultPlan::standard_chaos(21, 3));
  exec::TrialRunner runner(1);
  const ChaosFleetResult result = soak.run(runner);
  EXPECT_TRUE(std::isnan(result.steady_state_allocs));
  EXPECT_EQ(result.invariant_violations, 0u);

  ChaosFleetSoak wired(small_fleet(fresh_dir("fleet_wired")),
                       faults::FaultPlan::standard_chaos(21, 3));
  const ChaosFleetResult counted = wired.run(runner);
  EXPECT_FALSE(std::isnan(counted.steady_state_allocs));
  EXPECT_EQ(result.report.sessions, counted.report.sessions);
  EXPECT_EQ(result.report.radio_lost_frames, counted.report.radio_lost_frames);
}

TEST(ChaosFleetSoak, DifferentSeedsInjectDifferentSchedules) {
  ChaosFleetSoak soak_a(small_fleet(fresh_dir("fleet_s1")),
                        faults::FaultPlan::standard_chaos(1, 3));
  ChaosFleetSoak soak_b(small_fleet(fresh_dir("fleet_s2")),
                        faults::FaultPlan::standard_chaos(2, 3));
  exec::TrialRunner runner(2);
  const ChaosFleetResult a = soak_a.run(runner);
  const ChaosFleetResult b = soak_b.run(runner);
  EXPECT_EQ(a.invariant_violations, 0u);
  EXPECT_EQ(b.invariant_violations, 0u);
  // Same plan shape, different seed: the schedules must decorrelate.
  EXPECT_NE(a.injected_crashes + a.report.dropped_sessions +
                a.report.radio_lost_frames,
            b.injected_crashes + b.report.dropped_sessions +
                b.report.radio_lost_frames);
}

TEST(ChaosServeSoak, EveryDriftedUserRecoversThroughFaults) {
  ChaosServeSoak soak(small_serve(fresh_dir("serve_inv")),
                      faults::FaultPlan::standard_chaos(7, 3));
  exec::TrialRunner runner(2);
  const ChaosServeResult result = soak.run(runner);

  EXPECT_GT(total_injections(soak.injector()), 0u);
  EXPECT_EQ(result.recovered_users, 3u);
  EXPECT_EQ(result.unrecovered_users, 0u);
  EXPECT_EQ(result.committed_versions_lost, 0u);
  EXPECT_EQ(result.reopen_mismatches, 0u);
  EXPECT_EQ(result.invariant_violations, 0u);
  EXPECT_GT(result.report.retrain.jobs, 0u);
}

TEST(ChaosServeSoak, ResultIsIdenticalAtAnyJobCount) {
  const faults::FaultPlan plan = faults::FaultPlan::standard_chaos(21, 3);
  ChaosServeSoak serial_soak(small_serve(fresh_dir("serve_j1")), plan);
  ChaosServeSoak parallel_soak(small_serve(fresh_dir("serve_j3")), plan);
  exec::TrialRunner serial(1);
  exec::TrialRunner parallel(3);
  const ChaosServeResult a = serial_soak.run(serial);
  const ChaosServeResult b = parallel_soak.run(parallel);

  EXPECT_EQ(a.recovered_users, b.recovered_users);
  EXPECT_EQ(a.unrecovered_users, b.unrecovered_users);
  EXPECT_EQ(a.recovery_sessions_max, b.recovery_sessions_max);
  EXPECT_EQ(a.invariant_violations, b.invariant_violations);
  EXPECT_EQ(a.aborted_retrains, b.aborted_retrains);
  EXPECT_EQ(a.crashed_stages, b.crashed_stages);
  EXPECT_EQ(a.report.sessions, b.report.sessions);
  EXPECT_EQ(a.report.retrain.jobs, b.report.retrain.jobs);

  const auto log_a = serial_soak.injector().log();
  const auto log_b = parallel_soak.injector().log();
  ASSERT_EQ(log_a.size(), log_b.size());
  for (std::size_t i = 0; i < log_a.size(); ++i) {
    EXPECT_EQ(log_a[i].name, log_b[i].name);
    EXPECT_EQ(log_a[i].evaluations, log_b[i].evaluations) << log_a[i].name;
    EXPECT_EQ(log_a[i].injections, log_b[i].injections) << log_a[i].name;
  }
}

}  // namespace
}  // namespace coreda::serve
