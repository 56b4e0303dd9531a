// Closed-loop drift recovery: detect -> retrain -> redeploy, end to end.
//
// bench_serve_throughput prices the serving tier and *detects* drift
// (prompt-EWMA flags); this bench closes the loop with the engine's
// retrain stage. A fleet of users is served from one donor policy, but
// a subset starts from a *stale* table — trained on yesterday's routine
// (the first two steps swapped, exactly the A10 / bench_drift_adaptation
// scenario) — while the simulated patients perform today's routine. The
// stale policies prompt the wrong tool at the wrong moment, re-prompt
// escalation kicks in, the prompt EWMA crosses the drift threshold and the
// users get flagged. From there the engine takes over: in each drain, every
// slot trial that has served its requests retrains its flagged users with
// enough recorded transcripts on the slot's warm lane trainer, stages the
// refreshed tables back through the PolicyStore and invalidates their
// residency. The bench measures how many sessions it takes every drifted
// user's EWMA to drop back under the threshold — the recovery the
// flag/retrain/redeploy loop exists to deliver. The loop itself is
// serve::ChaosServeSoak, run here with an empty fault plan on a
// memory-only store; `coreda retrain` and bench_chaos_soak run it too.
//
// Stdout (per-round fleet state, recovery summary, allocation probes) is
// byte-identical at any --jobs: each drain is one seed-split TrialRunner
// trial per slot, serving and retraining the slot's own users. Wall-clock
// goes only to --timing-json (BENCH_retrain.json).
//
// Usage:
//   bench_retrain_recovery --users=24 --slots=4 --drifted=6 --rounds=10
//       --burst=2 --jobs=4 --timing-json=BENCH_retrain.json

#include <cstdio>
#include <sstream>
#include <string>

#include "exec/trial_runner.hpp"
#include "faults/faults.hpp"
#include "serve/chaos.hpp"
#include "util/alloc_counter.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

using namespace coreda;

/// Steady-state allocation probe for the retrain path itself: one slot, one
/// user, a full ring. After the first job warms the slot's trainer, a
/// retrain (import + replay + stage) must not touch the heap.
double steady_state_allocs_per_retrain(const serve::ChaosServeSoak& soak) {
  serve::PolicyStore store(soak.donor());
  serve::RetrainScheduler scheduler(soak.adl(), store,
                                    planning::LearnerConfig{}, /*slots=*/1);
  store.add_user();
  scheduler.add_user();
  for (std::size_t i = 0; i < serve::kTranscriptRingCapacity; ++i) {
    scheduler.record(0, soak.routine());
  }
  scheduler.retrain_user(0);  // warm-up
  constexpr int kProbe = 32;
  const std::uint64_t before = util::allocation_count();
  for (int i = 0; i < kProbe; ++i) scheduler.retrain_user(0);
  return static_cast<double>(util::allocation_count() - before) / kProbe;
}

std::string format2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parse(argc, argv);
  exec::TrialRunner runner(exec::jobs_from_flags(flags));
  const auto users = flags.get_count("users", 24);
  const auto slots = flags.get_count("slots", 4);
  const auto drifted = flags.get_count("drifted", 6);
  const auto rounds = flags.get_count("rounds", 10);
  const auto burst = flags.get_count("burst", 2);
  // Drifted users here run ~4 prompts/session against ~1 for calm ones (the
  // stale table mis-prompts once per swapped step plus escalations); the
  // threshold splits the two bands.
  const double threshold = flags.get_double("threshold", 2.5);
  if (drifted > users) {
    std::fprintf(stderr, "--drifted must be <= --users\n");
    return 1;
  }

  serve::ChaosServeParams params;
  params.users = users;
  params.drifted = drifted;
  params.slots = slots;
  params.chaos_rounds = 0;
  params.tail_rounds = rounds;
  params.burst = burst;
  params.threshold = threshold;
  serve::ChaosServeSoak soak(params, faults::FaultPlan{});

  std::printf("Closed-loop drift recovery: %zu users (%zu on stale tables) "
              "on %zu slots,\n%zu rounds x %zu sessions/user "
              "(EWMA threshold %.1f, retrain after %zu transcripts)\n\n",
              users, drifted, slots, rounds, burst,
              soak.engine().params().drift.threshold,
              serve::kRetrainMinTranscripts);

  const serve::ChaosServeResult result = soak.run(runner);
  const serve::ServeReport& report = result.report;

  // Per-round fleet state. All numbers come out of the (deterministic)
  // report, so the table is byte-identical at any --jobs.
  util::TextTable table("Fleet state per round (drifted-user means)");
  table.set_header({"round", "flagged", "retrains", "drift EWMA",
                    "drift prompts/s", "calm EWMA"});
  for (std::size_t round = 0; round < result.rounds.size(); ++round) {
    const serve::ChaosServeRound& rs = result.rounds[round];
    table.add_row({std::to_string(round), std::to_string(rs.flagged),
                   std::to_string(rs.retrain_jobs),
                   format2(rs.drifted_ewma), format2(rs.drifted_prompts),
                   format2(rs.calm_ewma)});
  }
  std::fputs(table.render().c_str(), stdout);

  // Recovery summary: sessions from the drain that first saw the flag to
  // the drain that first saw it cleared again (post-retrain EWMA back under
  // the threshold).
  const double post_retrain_prompts =
      result.rounds.empty() ? 0.0 : result.rounds.back().drifted_prompts;
  const double retrain_probe = steady_state_allocs_per_retrain(soak);

  util::TextTable summary("Recovery summary");
  summary.set_header({"metric", "value"});
  summary.add_row({"drifted users", std::to_string(drifted)});
  summary.add_row({"recovered (flag cleared)",
                   std::to_string(result.recovered_users)});
  summary.add_row({"max flag->clear sessions",
                   std::to_string(result.recovery_sessions_max)});
  summary.add_row({"retrain jobs", std::to_string(report.retrain.jobs)});
  summary.add_row({"episodes replayed",
                   std::to_string(report.retrain.episodes)});
  summary.add_row({"slot invalidations",
                   std::to_string(soak.engine().pool().invalidations())});
  summary.add_row({"drift prompts/session (final round)",
                   format2(post_retrain_prompts)});
  summary.add_row({"fleet checksum", std::to_string(report.checksum)});
  summary.add_row({"steady-state allocs/retrain", format2(retrain_probe)});
  std::fputs(summary.render().c_str(), stdout);
  std::puts("\nThe tables are byte-identical at any --jobs: each slot is one\n"
            "seed-split trial that serves its sessions, then retrains its\n"
            "own due users.");

  const std::string timing_path = flags.get("timing-json");
  std::ostringstream extra;
  extra << "\"users\": " << users << ", \"slots\": " << slots
        << ", \"drifted\": " << drifted << ", \"rounds\": " << rounds
        << ", \"sessions_per_round\": " << burst
        << ", \"sessions_per_sec\": "
        << (result.serve_seconds > 0.0
                ? static_cast<double>(report.sessions) / result.serve_seconds
                : 0.0)
        << ", \"recovered_users\": " << result.recovered_users
        << ", \"recovery_sessions_max\": " << result.recovery_sessions_max
        << ", \"post_retrain_prompts_per_session\": " << post_retrain_prompts
        << ", \"retrain_jobs\": " << report.retrain.jobs
        << ", \"retrain_episodes\": " << report.retrain.episodes
        << ", \"steady_state_allocs_per_retrain\": " << retrain_probe;
  exec::append_timing_record(timing_path, "retrain_recovery", runner.jobs(),
                             users, result.serve_seconds, extra.str());
  return 0;
}
