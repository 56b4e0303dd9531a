// Closed-loop session serving throughput: the fleet-of-homes shape.
//
// The fleet bench (fleet_throughput.cpp) isolates the *training* hot path;
// this bench exercises the *serving* hot path — the full Figure-2 loop
// (actor -> world -> nodes -> radio -> station -> planner -> reminder ->
// actor) run as a service. Each of N users gets one warm single-ADL
// HomeDeployment that serves `sessions` closed-loop sessions back to back
// via run_session_inplace(): nothing is reconstructed between sessions,
// only reset, so a warm system serves a whole session with zero heap
// allocations.
//
// Two fleets run under identical seeds and policies:
//   * reuse mode — one system per user, sessions served in place (record
//     "session_throughput"): the serving-engine contract this PR adds;
//   * fresh mode — a brand-new system per session, policy stamped in via
//     import_policy (record "session_throughput_fresh"): the
//     construct-per-request shape every caller was forced into before, kept
//     as the in-bench baseline the reuse speedup is measured against.
//
// Reported: sessions/sec, allocs/session (global operator-new counter) and
// the single-user steady-state allocs/session probe, all written to the
// --timing-json side channel (BENCH_sessions.json). Stdout stays
// byte-identical at any --jobs (seed-split TrialRunner); wall-clock and
// allocation totals live only in the side channel.
//
// Usage:
//   bench_session_throughput --users=50 --sessions=20 --jobs=4
//       --timing-json=BENCH_sessions.json

#include <cstdio>
#include <sstream>
#include <vector>

#include "adl/library.hpp"
#include "core/home.hpp"
#include "exec/trial_runner.hpp"
#include "patient/profile.hpp"
#include "planning/learner.hpp"
#include "util/alloc_counter.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

using namespace coreda;

struct FleetTotals {
  std::uint64_t checksum = 0;
  std::uint64_t completed = 0;
};

/// Per-user severity draw shared by both modes so they serve identical
/// patient populations.
patient::PatientProfile fleet_profile(util::Rng& rng) {
  return patient::PatientProfile::with_severity(
      "U", 0.1 + 0.4 * rng.uniform());
}

std::uint64_t session_checksum(const core::SessionResult& r) {
  std::uint64_t sum = r.prompts_total + r.steps_completed;
  for (adl::StepId id : r.observed_steps) sum += id;
  return sum;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parse(argc, argv);
  exec::TrialRunner runner(exec::jobs_from_flags(flags));
  const auto users = static_cast<std::size_t>(flags.get_int("users", 50));
  const auto sessions =
      static_cast<std::size_t>(flags.get_int("sessions", 20));

  adl::AdlLibrary library;
  const adl::Adl& tea = library.tea_making();

  // Train ONE donor policy offline; every serving system (both modes)
  // stamps it in via import_policy — the train-once / deploy-many split.
  std::vector<adl::StepId> routine;
  for (const adl::AdlStep& s : tea.primary_routine().steps()) {
    routine.push_back(s.step_id());
  }
  const std::vector<std::vector<adl::StepId>> training(80, routine);
  planning::RoutineLearner donor(tea, util::Rng(17));
  for (const auto& ep : training) donor.train_episode(ep);

  std::printf("Session serving throughput: %zu users x %zu sessions "
              "(tea-making, closed loop)\n\n",
              users, sessions);

  // Steady-state allocation contract: one warm system, scripted sessions
  // covering the wrong-tool and idle-reprompt branches (comply_minimal = 0
  // forces the escalation re-prompt path every session).
  double steady_allocs_per_session = 0.0;
  {
    core::SystemConfig config;
    config.seed = 99;
    core::HomeDeployment system(library, tea, config);
    system.import_policy(donor.q());
    patient::PatientProfile profile =
        patient::PatientProfile::with_severity("U", 0.0);
    profile.comply_minimal = 0.0;
    profile.comply_specific = 1.0;
    const std::function<void(patient::PatientActor&)> script =
        [](patient::PatientActor& actor) {
          using Kind = patient::PatientEvent::Kind;
          actor.force_next_decision(Kind::kStartedStep);
          actor.force_next_decision(Kind::kFroze);
          actor.force_next_decision(Kind::kWrongTool, adl::tools::kTeaCup);
        };
    core::SessionResult result;
    for (int i = 0; i < 16; ++i) {
      system.run_session_inplace(profile, sim::Duration::minutes(15.0),
                                 script, result);
    }
    constexpr int kProbe = 64;
    const std::uint64_t before = util::allocation_count();
    for (int i = 0; i < kProbe; ++i) {
      system.run_session_inplace(profile, sim::Duration::minutes(15.0),
                                 script, result);
    }
    steady_allocs_per_session =
        static_cast<double>(util::allocation_count() - before) / kProbe;
  }

  const double total_sessions = static_cast<double>(users * sessions);

  // Reuse mode: one warm system per user serves every session in place.
  const std::uint64_t reuse_allocs_before = util::allocation_count();
  const exec::Stopwatch reuse_timer;
  const std::vector<FleetTotals> reuse_results =
      runner.run(users, 4242, [&](exec::TrialContext& ctx) {
        core::SystemConfig config;
        config.seed = exec::trial_seed(4243, ctx.index);
        core::HomeDeployment system(library, tea, config);
        system.import_policy(donor.q());
        const patient::PatientProfile profile = fleet_profile(ctx.rng);
        FleetTotals totals;
        core::SessionResult result;
        for (std::size_t s = 0; s < sessions; ++s) {
          system.run_session_inplace(profile, sim::Duration::minutes(15.0),
                                     {}, result);
          totals.completed += result.completed;
          totals.checksum += session_checksum(result);
        }
        return totals;
      });
  const double reuse_seconds = reuse_timer.seconds();
  const std::uint64_t reuse_allocs =
      util::allocation_count() - reuse_allocs_before;

  // Fresh mode: the pre-serving-engine shape — a new system per session.
  const std::uint64_t fresh_allocs_before = util::allocation_count();
  const exec::Stopwatch fresh_timer;
  const std::vector<FleetTotals> fresh_results =
      runner.run(users, 4242, [&](exec::TrialContext& ctx) {
        const patient::PatientProfile profile = fleet_profile(ctx.rng);
        FleetTotals totals;
        for (std::size_t s = 0; s < sessions; ++s) {
          core::SystemConfig config;
          config.seed = exec::trial_seed(5243, ctx.index * sessions + s);
          core::HomeDeployment system(library, tea, config);
          system.import_policy(donor.q());
          const core::SessionResult result =
              system.run_session(profile, sim::Duration::minutes(15.0));
          totals.completed += result.completed;
          totals.checksum += session_checksum(result);
        }
        return totals;
      });
  const double fresh_seconds = fresh_timer.seconds();
  const std::uint64_t fresh_allocs =
      util::allocation_count() - fresh_allocs_before;

  FleetTotals reuse{}, fresh{};
  for (const FleetTotals& t : reuse_results) {
    reuse.checksum += t.checksum;
    reuse.completed += t.completed;
  }
  for (const FleetTotals& t : fresh_results) {
    fresh.checksum += t.checksum;
    fresh.completed += t.completed;
  }

  util::TextTable table("Serving summary (timing in --timing-json only)");
  table.set_header({"metric", "value"});
  table.add_row({"users", std::to_string(users)});
  table.add_row({"sessions/user", std::to_string(sessions)});
  table.add_row({"sessions served (reuse)",
                 std::to_string(users * sessions)});
  table.add_row({"completed (reuse)", std::to_string(reuse.completed)});
  table.add_row({"completed (fresh)", std::to_string(fresh.completed)});
  table.add_row({"fleet checksum (reuse)", std::to_string(reuse.checksum)});
  table.add_row({"fleet checksum (fresh)", std::to_string(fresh.checksum)});
  {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", steady_allocs_per_session);
    table.add_row({"steady-state allocs/session", buf});
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nThe summary is byte-identical at any --jobs (seed-split\n"
            "TrialRunner); only the wall-clock side channel may differ.");

  const std::string timing_path = flags.get("timing-json");
  {
    std::ostringstream extra;
    extra << "\"users\": " << users << ", \"sessions_per_user\": " << sessions
          << ", \"sessions_per_sec\": "
          << (reuse_seconds > 0.0 ? total_sessions / reuse_seconds : 0.0)
          << ", \"allocs_per_session\": "
          << static_cast<double>(reuse_allocs) / total_sessions
          << ", \"steady_state_allocs_per_session\": "
          << steady_allocs_per_session << ", \"speedup_vs_fresh\": "
          << (reuse_seconds > 0.0 ? fresh_seconds / reuse_seconds : 0.0);
    exec::append_timing_record(timing_path, "session_throughput",
                               runner.jobs(), users, reuse_seconds,
                               extra.str());
  }
  {
    std::ostringstream extra;
    extra << "\"users\": " << users << ", \"sessions_per_user\": " << sessions
          << ", \"sessions_per_sec\": "
          << (fresh_seconds > 0.0 ? total_sessions / fresh_seconds : 0.0)
          << ", \"allocs_per_session\": "
          << static_cast<double>(fresh_allocs) / total_sessions;
    exec::append_timing_record(timing_path, "session_throughput_fresh",
                               runner.jobs(), users, fresh_seconds,
                               extra.str());
  }
  return 0;
}
