// Multi-tenant serving throughput: many users, few warm systems.
//
// bench_session_throughput gave every user a dedicated warm HomeDeployment;
// this bench serves the same kind of workload through the serve/ frontend:
// a fixed SystemPool of `slots` warm systems (10x fewer than users by
// default), a versioned PolicyStore the per-user Q-tables live in, and a
// ServeEngine draining a queue of per-user session requests across the
// exec thread pool. Every session is checkout -> import_policy (skipped on
// a pool hit) -> run_session_inplace -> policy write-back, so the bench
// prices exactly what multi-tenancy adds on top of PR 3's warm serving
// path: the policy swaps.
//
// Requests arrive in bursts (`--burst` sessions per user per round): a
// resident keeps their slot for a burst (pool hits), then nine other
// tenants cycle through before their next one (policy swaps). Two engines
// run the identical workload:
//   * pooled    — `slots` systems shared by all users ("serve_throughput"):
//                 the multi-tenant configuration this PR adds;
//   * dedicated — one slot per user ("serve_throughput_dedicated"): the
//                 PR-3 shape, kept in-run as the swap-cost reference.
//
// Stdout (request counts, hit/swap split, wear counters, drift flags,
// fleet checksum, the steady-state allocation probe) is byte-identical at
// any --jobs — slots are sharded statically and fanned as TrialRunner
// trials. Wall-clock goes only to --timing-json (BENCH_serve.json).
//
// Usage:
//   bench_serve_throughput --users=50 --slots=5 --sessions=20 --burst=4
//       --jobs=4 --timing-json=BENCH_serve.json

#include <cstdio>
#include <sstream>
#include <vector>

#include "adl/library.hpp"
#include "exec/trial_runner.hpp"
#include "patient/profile.hpp"
#include "planning/learner.hpp"
#include "serve/arrivals.hpp"
#include "serve/engine.hpp"
#include "serve/population.hpp"
#include "util/alloc_counter.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

using namespace coreda;

struct EngineRun {
  serve::ServeReport report;
  double seconds = 0.0;
  double allocs_per_session = 0.0;
};

EngineRun run_workload(const adl::AdlLibrary& library, const adl::Adl& adl,
                       const planning::RoutineLearner& donor,
                       std::size_t users, std::size_t slots,
                       std::size_t sessions, std::size_t burst,
                       exec::TrialRunner& runner) {
  serve::PolicyStore store(donor);  // memory-only: the pure serving tier
  serve::ServeEngineParams params;
  params.pool.slots = slots;
  params.pool.seed = 4242;
  serve::ServeEngine engine(library, adl, store, params);
  for (std::size_t u = 0; u < users; ++u) {
    engine.add_user("U" + std::to_string(u), serve::user_profile(u));
  }
  // Burst arrival: each round hands every user `burst` back-to-back
  // sessions, so residency pays off within a burst and swaps dominate
  // across rounds — the daily-routine shape of a reminding deployment.
  std::size_t queued_per_user = 0;
  while (queued_per_user < sessions) {
    const std::size_t take = std::min(burst, sessions - queued_per_user);
    for (std::size_t u = 0; u < users; ++u) {
      engine.enqueue(static_cast<serve::UserId>(u), take);
    }
    queued_per_user += take;
  }

  EngineRun run;
  const std::uint64_t allocs_before = util::allocation_count();
  const exec::Stopwatch timer;
  run.report = engine.drain(runner);
  run.seconds = timer.seconds();
  run.allocs_per_session =
      static_cast<double>(util::allocation_count() - allocs_before) /
      static_cast<double>(run.report.sessions);
  return run;
}

/// Arrival-stream variant: the same pooled engine, but the enqueue order
/// comes from a seed-deterministic arrival generator instead of per-user
/// bursts — uniform traffic (residency almost never pays) vs Zipf-skewed
/// traffic (a hot head of heavy users keeps slots resident). The hit-rate
/// spread between the two is the residency win the pool buys under the
/// clinically realistic load shape.
template <typename Arrivals>
EngineRun run_arrival_workload(const adl::AdlLibrary& library,
                               const adl::Adl& adl,
                               const planning::RoutineLearner& donor,
                               std::size_t users, std::size_t slots,
                               std::size_t total_sessions, Arrivals& arrivals,
                               exec::TrialRunner& runner) {
  serve::PolicyStore store(donor);
  serve::ServeEngineParams params;
  params.pool.slots = slots;
  params.pool.seed = 4242;
  serve::ServeEngine engine(library, adl, store, params);
  for (std::size_t u = 0; u < users; ++u) {
    engine.add_user("U" + std::to_string(u), serve::user_profile(u));
  }
  for (std::size_t i = 0; i < total_sessions; ++i) {
    engine.enqueue(static_cast<serve::UserId>(arrivals.next()), 1);
  }

  EngineRun run;
  const std::uint64_t allocs_before = util::allocation_count();
  const exec::Stopwatch timer;
  run.report = engine.drain(runner);
  run.seconds = timer.seconds();
  run.allocs_per_session =
      static_cast<double>(util::allocation_count() - allocs_before) /
      static_cast<double>(run.report.sessions);
  return run;
}

/// Steady-state allocation probe: a single-slot pool serving two tenants
/// alternately, so EVERY serve is a policy swap (import + write-back).
/// After warm-up the whole serve must not touch the heap.
double steady_state_allocs(const adl::AdlLibrary& library,
                           const adl::Adl& adl,
                           const planning::RoutineLearner& donor) {
  serve::PolicyStore store(donor);
  serve::SystemPoolParams params;
  params.slots = 1;
  params.seed = 99;
  serve::SystemPool pool(store, params, library, adl);
  store.add_user("A");
  store.add_user("B");

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
    pool.serve_session(static_cast<serve::UserId>(i % 2), profile,
                       sim::Duration::minutes(15.0), script, result);
  }
  constexpr int kProbe = 64;
  const std::uint64_t before = util::allocation_count();
  for (int i = 0; i < kProbe; ++i) {
    pool.serve_session(static_cast<serve::UserId>(i % 2), profile,
                       sim::Duration::minutes(15.0), script, result);
  }
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
  const auto users = flags.get_count("users", 50);
  const auto slots = flags.get_count("slots", 5);
  const auto sessions = flags.get_count("sessions", 20);
  const auto burst = flags.get_count("burst", 4);

  adl::AdlLibrary library;
  const adl::Adl& tea = library.tea_making();

  // One donor policy trained offline; the store stamps it into every new
  // tenant — train-once / deploy-many, as in bench_session_throughput.
  std::vector<adl::StepId> routine;
  for (const adl::AdlStep& s : tea.primary_routine().steps()) {
    routine.push_back(s.step_id());
  }
  planning::RoutineLearner donor(tea, util::Rng(17));
  for (int i = 0; i < 80; ++i) donor.train_episode(routine);

  std::printf("Multi-tenant serving: %zu users on %zu warm systems, "
              "%zu sessions/user (bursts of %zu)\n\n",
              users, slots, sessions, burst);

  const double probe = steady_state_allocs(library, tea, donor);

  const EngineRun pooled = run_workload(library, tea, donor, users, slots,
                                        sessions, burst, runner);
  const EngineRun dedicated = run_workload(library, tea, donor, users, users,
                                           sessions, burst, runner);

  // Traffic-shape comparison on the pooled configuration: identical session
  // volume, arrival order drawn uniformly vs Zipf-skewed.
  const double zipf_s = flags.get_double("zipf", 1.1);
  serve::UniformArrivals uniform_arrivals(users, 777);
  serve::ZipfianArrivals zipf_arrivals(users, zipf_s, 777, runner);
  const std::size_t total_sessions = users * sessions;
  const EngineRun uniform =
      run_arrival_workload(library, tea, donor, users, slots, total_sessions,
                           uniform_arrivals, runner);
  const EngineRun zipf =
      run_arrival_workload(library, tea, donor, users, slots, total_sessions,
                           zipf_arrivals, runner);

  const auto& rep = pooled.report;
  const double total = static_cast<double>(rep.sessions);
  util::TextTable table("Serving summary (timing in --timing-json only)");
  table.set_header({"metric", "pooled", "dedicated"});
  table.add_row({"pool slots", std::to_string(slots),
                 std::to_string(users)});
  table.add_row({"sessions served", std::to_string(rep.sessions),
                 std::to_string(dedicated.report.sessions)});
  table.add_row({"completed", std::to_string(rep.completed),
                 std::to_string(dedicated.report.completed)});
  table.add_row({"pool hits", std::to_string(rep.pool_hits),
                 std::to_string(dedicated.report.pool_hits)});
  table.add_row({"policy swaps", std::to_string(rep.policy_swaps),
                 std::to_string(dedicated.report.policy_swaps)});
  table.add_row({"hit rate",
                 format2(static_cast<double>(rep.pool_hits) / total),
                 format2(static_cast<double>(dedicated.report.pool_hits) /
                         total)});
  table.add_row({"policy writes staged", std::to_string(rep.staged_writes),
                 std::to_string(dedicated.report.staged_writes)});
  table.add_row({"policy writes to disk", std::to_string(rep.disk_writes),
                 std::to_string(dedicated.report.disk_writes)});
  table.add_row({"users flagged (drift)", std::to_string(rep.flagged_users),
                 std::to_string(dedicated.report.flagged_users)});
  table.add_row({"fleet checksum", std::to_string(rep.checksum),
                 std::to_string(dedicated.report.checksum)});
  table.add_row({"steady-state allocs/serve", format2(probe), "-"});
  std::fputs(table.render().c_str(), stdout);

  const auto hit_rate = [](const EngineRun& run) {
    return static_cast<double>(run.report.pool_hits) /
           static_cast<double>(run.report.sessions);
  };
  util::TextTable shapes("Traffic shape (pooled slots, arrival streams)");
  shapes.set_header({"metric", "uniform",
                     "zipf(" + format2(zipf_s) + ")"});
  shapes.add_row({"sessions served", std::to_string(uniform.report.sessions),
                  std::to_string(zipf.report.sessions)});
  shapes.add_row({"pool hit rate", format2(hit_rate(uniform)),
                  format2(hit_rate(zipf))});
  shapes.add_row({"policy swaps", std::to_string(uniform.report.policy_swaps),
                  std::to_string(zipf.report.policy_swaps)});
  shapes.add_row({"fleet checksum", std::to_string(uniform.report.checksum),
                  std::to_string(zipf.report.checksum)});
  std::fputs(shapes.render().c_str(), stdout);
  std::puts("\nThe summary is byte-identical at any --jobs: requests shard\n"
            "statically onto slots and each slot is one seed-split trial.");

  const std::string timing_path = flags.get("timing-json");
  const auto emit = [&](const char* name, const EngineRun& run,
                        std::size_t run_slots) {
    std::ostringstream extra;
    extra << "\"users\": " << users << ", \"slots\": " << run_slots
          << ", \"sessions_per_user\": " << sessions
          << ", \"sessions_per_sec\": "
          << (run.seconds > 0.0 ? total / run.seconds : 0.0)
          << ", \"pool_hit_rate\": "
          << static_cast<double>(run.report.pool_hits) / total
          << ", \"policy_swaps\": " << run.report.policy_swaps
          << ", \"allocs_per_session\": " << run.allocs_per_session
          << ", \"steady_state_allocs_per_session\": " << probe;
    exec::append_timing_record(timing_path, name, runner.jobs(), users,
                               run.seconds, extra.str());
  };
  emit("serve_throughput", pooled, slots);
  emit("serve_throughput_dedicated", dedicated, users);
  emit("serve_throughput_uniform", uniform, slots);
  emit("serve_throughput_zipf", zipf, slots);
  return 0;
}
