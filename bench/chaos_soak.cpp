// Gated chaos soak: both serving tiers under the standard fault plan.
//
// Every other bench proves the serving tiers fast; this one proves them
// *unkillable*. Phase 1 drives the million-user tier's scaled-down twin
// (FleetEngine over the mmap segment store) through `--rounds` rounds
// inside FaultPlan::standard_chaos — crashed and corrupted appends, node
// dropouts, shard stalls, Gilbert–Elliott radio loss bursts — checking
// after EVERY round that no committed policy version ever regressed and
// that a store reopened on the same directory recovers byte-exactly the
// live store's view (the power-cut contract, replayed dozens of times
// instead of once per crash test). Phase 2 closes the drift loop under the
// same plan: users on stale tables must be flagged, retrained through
// injected aborts and crashed flushes, and recover — then the snapshot
// directory must restore every user at the flushed version.
//
// After the fault window closes, `--tail-rounds` clean rounds prove the
// fleet settles: the soak ends with a serial steady-state probe whose
// allocations-per-session must stay 0.
//
// Stdout (round tables, invariant counters, the per-site injection log) is
// byte-identical at any --jobs: fault decisions are pure (site, user, tick)
// hashes and both engines shard statically. Wall-clock goes only to
// --timing-json (BENCH_chaos.json), where the regression checker
// exact-gates invariant_violations=0, committed_versions_lost=0,
// recovered_users and the allocation contract.
//
// Usage:
//   bench_chaos_soak --users=512 --active=192 --rounds=6 --tail-rounds=2
//       --serve-users=24 --drifted=6 --jobs=4 --timing-json=BENCH_chaos.json

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>

#include "serve/chaos.hpp"
// Replaces this binary's global allocator with a counting one, for the
// steady-state probe (ChaosFleetParams::allocation_count).
#include "util/alloc_counter.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

using namespace coreda;

std::string format2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

void print_injection_log(const faults::Injector& injector) {
  std::ostringstream log;
  injector.report(log);
  std::fputs(log.str().c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parse(argc, argv);
  exec::TrialRunner runner(exec::jobs_from_flags(flags));

  serve::ChaosFleetParams fp;
  fp.users = flags.get_count("users", 512);
  fp.active = flags.get_count("active", 192);
  fp.chaos_rounds = flags.get_count("rounds", 6);
  fp.tail_rounds = flags.get_count("tail-rounds", 2);
  fp.shards = flags.get_count("shards", 4);
  fp.slots_per_shard = flags.get_count("slots-per-shard", 2);
  fp.rebase_every = flags.get_count("rebase-every", 8);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::string base_dir =
      flags.get("dir").empty()
          ? (std::filesystem::temp_directory_path() / "coreda_chaos").string()
          : flags.get("dir");
  fp.dir = base_dir + "_fleet";
  fp.allocation_count = util::allocation_count;

  std::printf("Chaos soak: %zu fleet users (%zu shards x %zu slots), "
              "%zu chaos + %zu tail rounds x %zu sessions,\n"
              "standard fault plan seed %llu\n\n",
              fp.users, fp.shards, fp.slots_per_shard, fp.chaos_rounds,
              fp.tail_rounds, fp.active,
              static_cast<unsigned long long>(seed));

  serve::ChaosFleetSoak fleet_soak(
      fp, faults::FaultPlan::standard_chaos(seed, fp.chaos_rounds));
  const serve::ChaosFleetResult fleet = fleet_soak.run(runner);

  util::TextTable rounds("Fleet soak per round (cumulative counters)");
  rounds.set_header({"round", "epoch", "sessions", "dropped", "crashed",
                     "radio lost", "committed", "lost", "reopen bad"});
  for (std::size_t r = 0; r < fleet.rounds.size(); ++r) {
    const serve::ChaosRoundStats& rs = fleet.rounds[r];
    rounds.add_row({std::to_string(r), std::to_string(rs.epoch),
                    std::to_string(rs.sessions), std::to_string(rs.dropped),
                    std::to_string(rs.crashed_appends),
                    std::to_string(rs.radio_lost),
                    std::to_string(rs.committed_users),
                    std::to_string(rs.round_versions_lost),
                    std::to_string(rs.round_reopen_mismatches +
                                   rs.round_reopen_load_failures)});
  }
  std::fputs(rounds.render().c_str(), stdout);

  util::TextTable summary("Fleet soak invariants");
  summary.set_header({"metric", "value"});
  summary.add_row({"injected crashes (pre-publish)",
                   std::to_string(fleet.injected_crashes)});
  summary.add_row({"injected corruptions",
                   std::to_string(fleet.injected_corruptions)});
  summary.add_row({"dropped sessions",
                   std::to_string(fleet.report.dropped_sessions)});
  summary.add_row({"crashed appends",
                   std::to_string(fleet.report.crashed_appends)});
  summary.add_row({"radio frames lost to bursts",
                   std::to_string(fleet.report.radio_lost_frames)});
  summary.add_row({"committed versions lost",
                   std::to_string(fleet.committed_versions_lost)});
  summary.add_row({"reopen mismatches",
                   std::to_string(fleet.reopen_mismatches)});
  summary.add_row({"reopen load failures",
                   std::to_string(fleet.reopen_load_failures)});
  summary.add_row({"invariant violations",
                   std::to_string(fleet.invariant_violations)});
  summary.add_row({"fleet checksum",
                   std::to_string(fleet.report.checksum)});
  summary.add_row({"steady-state allocs/session (post-chaos)",
                   format2(fleet.steady_state_allocs)});
  std::fputs(summary.render().c_str(), stdout);
  std::puts("");
  print_injection_log(fleet_soak.injector());

  serve::ChaosServeParams sp;
  sp.users = flags.get_count("serve-users", 24);
  sp.drifted = flags.get_count("drifted", 6);
  sp.slots = flags.get_count("slots", 4);
  sp.chaos_rounds = flags.get_count("serve-rounds", 6);
  sp.tail_rounds = flags.get_count("serve-tail-rounds", 8);
  sp.burst = flags.get_count("burst", 2);
  sp.dir = base_dir + "_serve";

  std::printf("\nDrift-recovery soak: %zu users (%zu stale) on %zu slots, "
              "%zu chaos + %zu tail rounds x %zu sessions/user\n\n",
              sp.users, sp.drifted, sp.slots, sp.chaos_rounds,
              sp.tail_rounds, sp.burst);

  serve::ChaosServeSoak serve_soak(
      sp, faults::FaultPlan::standard_chaos(seed, sp.chaos_rounds));
  const serve::ChaosServeResult drift = serve_soak.run(runner);

  util::TextTable loop("Drift recovery under faults");
  loop.set_header({"metric", "value"});
  loop.add_row({"drifted users", std::to_string(sp.drifted)});
  loop.add_row({"recovered (flag cleared)",
                std::to_string(drift.recovered_users)});
  loop.add_row({"unrecovered", std::to_string(drift.unrecovered_users)});
  loop.add_row({"max flag->clear sessions",
                std::to_string(drift.recovery_sessions_max)});
  loop.add_row({"retrain jobs", std::to_string(drift.report.retrain.jobs)});
  loop.add_row({"injected retrain aborts",
                std::to_string(drift.aborted_retrains)});
  loop.add_row({"crashed stage flushes",
                std::to_string(drift.crashed_stages)});
  loop.add_row({"committed versions lost",
                std::to_string(drift.committed_versions_lost)});
  loop.add_row({"reopen mismatches",
                std::to_string(drift.reopen_mismatches)});
  loop.add_row({"invariant violations",
                std::to_string(drift.invariant_violations)});
  loop.add_row({"serve checksum", std::to_string(drift.report.checksum)});
  std::fputs(loop.render().c_str(), stdout);
  std::puts("");
  print_injection_log(serve_soak.injector());

  std::puts("\nAll tables are byte-identical at any --jobs: fault decisions\n"
            "are pure (site, user, tick) hashes and both engines shard\n"
            "statically; wall-clock goes only to --timing-json.");

  const std::string timing_path = flags.get("timing-json");
  {
    std::ostringstream extra;
    extra << "\"users\": " << fp.users
          << ", \"active_per_round\": " << fp.active
          << ", \"chaos_rounds\": " << fp.chaos_rounds
          << ", \"tail_rounds\": " << fp.tail_rounds
          << ", \"sessions\": " << fleet.report.sessions
          << ", \"sessions_per_sec\": "
          << (fleet.serve_seconds > 0.0
                  ? static_cast<double>(fleet.report.sessions) /
                        fleet.serve_seconds
                  : 0.0)
          << ", \"invariant_violations\": " << fleet.invariant_violations
          << ", \"committed_versions_lost\": "
          << fleet.committed_versions_lost
          << ", \"reopen_mismatches\": " << fleet.reopen_mismatches
          << ", \"reopen_load_failures\": " << fleet.reopen_load_failures
          << ", \"injected_crashes\": " << fleet.injected_crashes
          << ", \"injected_corruptions\": " << fleet.injected_corruptions
          << ", \"dropped_sessions\": " << fleet.report.dropped_sessions
          << ", \"crashed_appends\": " << fleet.report.crashed_appends
          << ", \"radio_lost_frames\": " << fleet.report.radio_lost_frames
          << ", \"steady_state_allocs_per_session\": "
          << fleet.steady_state_allocs;
    exec::append_timing_record(timing_path, "chaos_fleet", runner.jobs(),
                               fp.chaos_rounds + fp.tail_rounds,
                               fleet.serve_seconds, extra.str());
  }
  {
    std::ostringstream extra;
    extra << "\"users\": " << sp.users << ", \"drifted\": " << sp.drifted
          << ", \"chaos_rounds\": " << sp.chaos_rounds
          << ", \"tail_rounds\": " << sp.tail_rounds
          << ", \"sessions_per_sec\": "
          << (drift.serve_seconds > 0.0
                  ? static_cast<double>(drift.report.sessions) /
                        drift.serve_seconds
                  : 0.0)
          << ", \"invariant_violations\": " << drift.invariant_violations
          << ", \"committed_versions_lost\": "
          << drift.committed_versions_lost
          << ", \"reopen_mismatches\": " << drift.reopen_mismatches
          << ", \"recovered_users\": " << drift.recovered_users
          << ", \"recovery_sessions_max\": " << drift.recovery_sessions_max
          << ", \"aborted_retrains\": " << drift.aborted_retrains
          << ", \"crashed_stages\": " << drift.crashed_stages
          << ", \"retrain_jobs\": " << drift.report.retrain.jobs;
    exec::append_timing_record(timing_path, "chaos_serve", runner.jobs(),
                               sp.chaos_rounds + sp.tail_rounds,
                               drift.serve_seconds, extra.str());
  }
  return fleet.invariant_violations + drift.invariant_violations == 0 ? 0
                                                                      : 1;
}
