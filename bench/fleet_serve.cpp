// Million-user fleet tier: sharded FleetEngine over the mmap segment store.
//
// bench_serve_throughput prices multi-tenancy with every user's table
// resident in RAM (a PolicyStore entry per user). This bench prices the
// next order of magnitude: `--users` registered patients (default 1M)
// whose tables live in the memory-mapped segment store, with only
// shards x slots-per-shard warm systems and <16 bytes of resident RAM per
// registered user (one packed u32 in the engine plus the store's
// open-addressed index slab). Each round draws a sparse active set from a
// seed-deterministic arrival stream and drains it shard-parallel; a serve
// is pool hit -> run, or evict -> append -> mmap load -> import -> run.
//
// Two traffic shapes run the same fleet size:
//   * fleet_serve_uniform — every patient equally active: residency almost
//     never pays off, nearly every serve cold-loads from the store;
//   * fleet_serve         — Zipf(`--zipf`) skew, the clinically realistic
//     shape: a hot head of heavy users keeps slots resident.
//
// Stdout (session counts, hit/cold split, store counters, the checksum,
// the steady-state allocation probe) is byte-identical at any --jobs: one
// trial per shard, users statically owned by shards, latency never printed.
// Wall-clock AND the p50/p99/p999 serve-latency percentiles go only to
// --timing-json (BENCH_fleet_serve.json), where the regression checker
// gates sessions_per_sec, the percentiles, and the allocation contract.
//
// After each traffic shape the store directory is reopened once and the
// scan-on-open is timed (cold_start_scan_ms, --timing-json only): the
// restart cost of the whole fleet, which the regression checker gates.
//
// Usage:
//   bench_fleet_serve --users=1000000 --active=1500 --rounds=3 --shards=4
//       --slots-per-shard=2 --zipf=1.1 --jobs=4
//       --timing-json=BENCH_fleet_serve.json

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "adl/library.hpp"
#include "exec/trial_runner.hpp"
#include "planning/learner.hpp"
#include "serve/arrivals.hpp"
#include "serve/fleet_engine.hpp"
#include "serve/population.hpp"
#include "util/alloc_counter.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

using namespace coreda;

/// Chain cap for every store this bench opens (--rebase-every). 32 keeps
/// the per-retrain append traffic well past the 4x gate while staying
/// under the 63-record format cap a chain walk tolerates.
std::size_t g_rebase_every = 32;

struct ShapeRun {
  serve::FleetReport report;   ///< cumulative over the timed rounds
  std::uint64_t sessions = 0;  ///< timed sessions only
  double seconds = 0.0;
  double allocs_per_session = 0.0;
  double steady_state_allocs = 0.0;
  std::size_t segments = 0;
  std::uint64_t live = 0;
  std::uint64_t dead = 0;
  std::uint64_t compactions = 0;
  std::uint64_t reclaimed = 0;  ///< segments appends emptied, no copy
  std::uint64_t appends = 0;
  std::uint64_t appended_bytes = 0;
  std::uint64_t anchors_written = 0;
  std::uint64_t deltas_written = 0;
  std::size_t anchor_record_bytes = 0;
  std::size_t index_slab_bytes = 0;
  std::size_t resident_state_bytes = 0;
  double cold_start_ms = 0.0;          ///< reopen scan wall-clock (JSON only)
  std::uint64_t cold_scanned = 0;      ///< records the reopen scan accepted
};

template <typename Arrivals>
ShapeRun run_shape(const adl::AdlLibrary& library, const adl::Adl& adl,
                   const planning::RoutineLearner& donor,
                   const std::string& dir, std::size_t users,
                   std::size_t active, std::size_t rounds,
                   const serve::FleetEngineParams& params,
                   Arrivals& arrivals, exec::TrialRunner& runner) {
  std::filesystem::remove_all(dir);
  serve::SegmentStoreParams store_params;
  store_params.dir = dir;
  store_params.writers = params.shards;
  store_params.rebase_every = g_rebase_every;
  serve::SegmentStore store(donor.state_codec().symbols(),
                            donor.action_codec().tools(),
                            donor.q().num_states(), donor.q().num_actions(),
                            store_params);
  serve::FleetEngine fleet(library, adl, store, donor.q(), params);
  fleet.reserve_users(users);  // one slab + one index table, no doubling
  for (std::size_t u = 0; u < users; ++u) {
    fleet.register_user(serve::user_severity(u));
  }

  // Warm-up round: pays the reference starts, first-touch page faults and
  // queue growth, and seeds the store so the timed rounds cold-load real
  // records out of the mapping.
  for (std::size_t i = 0; i < active; ++i) fleet.enqueue(arrivals.next());
  fleet.drain(runner);
  fleet.reset_latency();

  ShapeRun run;
  const std::uint64_t allocs_before = util::allocation_count();
  const exec::Stopwatch timer;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < active; ++i) fleet.enqueue(arrivals.next());
    run.report = fleet.drain(runner);
  }
  run.seconds = timer.seconds();
  run.sessions = run.report.sessions - active;  // minus the warm-up round
  run.allocs_per_session =
      static_cast<double>(util::allocation_count() - allocs_before) /
      static_cast<double>(run.sessions);

  // Steady-state probe on a serial runner so the number is independent of
  // --jobs: everything is warm, so the only allowed heap traffic is the
  // runner's per-drain results vector (amortized across 64 sessions) and
  // whatever segment roll / compaction the deterministic append sequence
  // happens to schedule here.
  exec::TrialRunner probe_runner(1);
  constexpr std::size_t kProbe = 64;
  for (std::size_t i = 0; i < kProbe; ++i) fleet.enqueue(arrivals.next());
  const std::uint64_t probe_before = util::allocation_count();
  fleet.drain(probe_runner);
  run.steady_state_allocs =
      static_cast<double>(util::allocation_count() - probe_before) / kProbe;

  fleet.flush_residents();
  run.segments = store.num_segments();
  run.live = store.live_records();
  run.dead = store.dead_records();
  run.compactions = store.compactions();
  run.reclaimed = store.reclaimed_segments();
  run.appends = store.appends();
  run.appended_bytes = store.appended_bytes();
  run.anchors_written = store.anchor_records_written();
  run.deltas_written = store.delta_records_written();
  run.anchor_record_bytes = store.anchor_record_bytes();
  run.index_slab_bytes = store.index_slab_bytes();
  run.resident_state_bytes = fleet.resident_state_bytes();
  return run;
}

/// The retrain write-back shape the storage gate prices: every cohort
/// member is served (and appended) once per round, so after the warm-up
/// round's anchors the write-backs ride the delta chain until the
/// rebase_every cap forces the next anchor. `segment_bytes_per_retrain`
/// and the reduction vs full v2 anchor records are measured over the
/// timed rounds only — the steady state of a fleet whose patients are
/// retrained daily.
ShapeRun run_retrain(const adl::AdlLibrary& library, const adl::Adl& adl,
                     const planning::RoutineLearner& donor,
                     const std::string& dir, std::size_t cohort,
                     std::size_t rounds,
                     const serve::FleetEngineParams& params,
                     exec::TrialRunner& runner) {
  std::filesystem::remove_all(dir);
  serve::SegmentStoreParams store_params;
  store_params.dir = dir;
  store_params.writers = params.shards;
  store_params.rebase_every = g_rebase_every;
  serve::SegmentStore store(donor.state_codec().symbols(),
                            donor.action_codec().tools(),
                            donor.q().num_states(), donor.q().num_actions(),
                            store_params);
  serve::FleetEngine fleet(library, adl, store, donor.q(), params);
  fleet.reserve_users(cohort);
  for (std::size_t u = 0; u < cohort; ++u) {
    fleet.register_user(serve::user_severity(u));
  }
  // Warm-up: the first write-back per user is necessarily a full anchor.
  for (std::size_t u = 0; u < cohort; ++u) fleet.enqueue(u);
  fleet.drain(runner);

  ShapeRun run;
  const std::uint64_t appends0 = store.appends();
  const std::uint64_t bytes0 = store.appended_bytes();
  const std::uint64_t anchors0 = store.anchor_records_written();
  const std::uint64_t deltas0 = store.delta_records_written();
  const exec::Stopwatch timer;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t u = 0; u < cohort; ++u) fleet.enqueue(u);
    run.report = fleet.drain(runner);
  }
  run.seconds = timer.seconds();
  run.sessions = cohort * rounds;
  run.appends = store.appends() - appends0;
  run.appended_bytes = store.appended_bytes() - bytes0;
  run.anchors_written = store.anchor_records_written() - anchors0;
  run.deltas_written = store.delta_records_written() - deltas0;
  run.anchor_record_bytes = store.anchor_record_bytes();
  run.segments = store.num_segments();
  run.compactions = store.compactions();
  run.reclaimed = store.reclaimed_segments();
  return run;
}

/// Times one reopen of a just-closed store directory: the fleet restart
/// cost. The scan is the dominant term (map + validate every record and
/// rebuild the user index); wall-clock, so JSON side-channel only.
void time_cold_start(const planning::RoutineLearner& donor,
                     const std::string& dir, std::size_t writers,
                     ShapeRun& run) {
  serve::SegmentStoreParams store_params;
  store_params.dir = dir;
  store_params.writers = writers;
  const exec::Stopwatch timer;
  serve::SegmentStore reopened(donor.state_codec().symbols(),
                               donor.action_codec().tools(),
                               donor.q().num_states(),
                               donor.q().num_actions(), store_params);
  run.cold_start_ms = timer.seconds() * 1e3;
  run.cold_scanned = reopened.scanned_records();
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
  const auto users = flags.get_count("users", 1000000);
  const auto active = flags.get_count("active", 1500);
  const auto rounds = flags.get_count("rounds", 3);
  const double zipf = flags.get_double("zipf", 1.1);

  serve::FleetEngineParams params;
  params.shards = flags.get_count("shards", 4);
  params.slots_per_shard = flags.get_count("slots-per-shard", 2);
  params.system.learn_from_sessions = true;  // write-backs carry real deltas
  params.write_back_every = flags.get_count("write-back-every", 1);
  g_rebase_every = flags.get_count("rebase-every", 32);

  adl::AdlLibrary library;
  const adl::Adl& tea = library.tea_making();
  std::vector<adl::StepId> routine;
  for (const adl::AdlStep& s : tea.primary_routine().steps()) {
    routine.push_back(s.step_id());
  }
  planning::RoutineLearner donor(tea, util::Rng(17));
  for (int i = 0; i < 80; ++i) donor.train_episode(routine);

  const std::string base_dir =
      flags.get("dir").empty()
          ? (std::filesystem::temp_directory_path() / "coreda_fleet_serve")
                .string()
          : flags.get("dir");

  std::printf("Fleet tier: %zu registered users, %zu shards x %zu slots, "
              "%zu active sessions/round over %zu timed rounds\n\n",
              users, params.shards, params.slots_per_shard, active, rounds);

  serve::UniformArrivals uniform(users, 777);
  serve::ZipfianArrivals skewed(users, zipf, 777, runner);
  ShapeRun flat = run_shape(library, tea, donor, base_dir + "_uniform",
                            users, active, rounds, params, uniform, runner);
  time_cold_start(donor, base_dir + "_uniform", params.shards, flat);
  ShapeRun hot = run_shape(library, tea, donor, base_dir + "_zipf", users,
                           active, rounds, params, skewed, runner);
  time_cold_start(donor, base_dir + "_zipf", params.shards, hot);

  const auto rate = [](const ShapeRun& r) {
    return static_cast<double>(r.report.pool_hits) /
           static_cast<double>(r.report.sessions);
  };
  util::TextTable table("Fleet serving (timing/percentiles in --timing-json "
                        "only)");
  table.set_header({"metric", "uniform", std::string("zipf(") +
                                             format2(zipf) + ")"});
  table.add_row({"sessions (incl. warm-up)",
                 std::to_string(flat.report.sessions),
                 std::to_string(hot.report.sessions)});
  table.add_row({"completed", std::to_string(flat.report.completed),
                 std::to_string(hot.report.completed)});
  table.add_row({"prompts", std::to_string(flat.report.prompts),
                 std::to_string(hot.report.prompts)});
  table.add_row({"pool hit rate", format2(rate(flat)), format2(rate(hot))});
  table.add_row({"cold loads (mmap)", std::to_string(flat.report.cold_loads),
                 std::to_string(hot.report.cold_loads)});
  table.add_row({"reference starts",
                 std::to_string(flat.report.reference_starts),
                 std::to_string(hot.report.reference_starts)});
  table.add_row({"store appends", std::to_string(flat.report.appends),
                 std::to_string(hot.report.appends)});
  table.add_row({"store segments", std::to_string(flat.segments),
                 std::to_string(hot.segments)});
  table.add_row({"live/dead records",
                 std::to_string(flat.live) + "/" + std::to_string(flat.dead),
                 std::to_string(hot.live) + "/" + std::to_string(hot.dead)});
  table.add_row({"compactions", std::to_string(flat.compactions),
                 std::to_string(hot.compactions)});
  table.add_row({"segments reclaimed", std::to_string(flat.reclaimed),
                 std::to_string(hot.reclaimed)});
  const auto bytes_per_append = [](const ShapeRun& r) {
    return r.appends > 0 ? static_cast<double>(r.appended_bytes) /
                               static_cast<double>(r.appends)
                         : 0.0;
  };
  const auto reduction = [&](const ShapeRun& r) {
    const double per = bytes_per_append(r);
    return per > 0.0 ? static_cast<double>(r.anchor_record_bytes) / per : 0.0;
  };
  table.add_row({"anchors/deltas written",
                 std::to_string(flat.anchors_written) + "/" +
                     std::to_string(flat.deltas_written),
                 std::to_string(hot.anchors_written) + "/" +
                     std::to_string(hot.deltas_written)});
  table.add_row({"bytes/append", format2(bytes_per_append(flat)),
                 format2(bytes_per_append(hot))});
  table.add_row({"append reduction vs anchors", format2(reduction(flat)),
                 format2(reduction(hot))});
  table.add_row({"drift flagged", std::to_string(flat.report.drift_flagged),
                 std::to_string(hot.report.drift_flagged)});
  const auto resident_per_user = [users](const ShapeRun& r) {
    return static_cast<double>(r.resident_state_bytes + r.index_slab_bytes) /
           static_cast<double>(users);
  };
  table.add_row({"resident B/user (engine+index)",
                 format2(resident_per_user(flat)),
                 format2(resident_per_user(hot))});
  table.add_row({"reopen scan records", std::to_string(flat.cold_scanned),
                 std::to_string(hot.cold_scanned)});
  table.add_row({"fleet checksum", std::to_string(flat.report.checksum),
                 std::to_string(hot.report.checksum)});
  table.add_row({"steady-state allocs/serve",
                 format2(flat.steady_state_allocs),
                 format2(hot.steady_state_allocs)});
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nThe summary is byte-identical at any --jobs: users are owned\n"
            "by shards statically and each shard drains as one seed-split\n"
            "trial; serve latency goes only to the timing side-channel.");

  // The storage gate: per-retrain append traffic once every cohort member
  // has its anchor. This is where the delta encoding must buy >= 4x.
  const auto retrain_users = flags.get_count("retrain-users", 256);
  const auto retrain_rounds = flags.get_count("retrain-rounds", 32);
  const ShapeRun retrain =
      run_retrain(library, tea, donor, base_dir + "_retrain", retrain_users,
                  retrain_rounds, params, runner);
  std::printf("\nRetrain write-back: %zu users x %zu rounds, %s bytes/"
              "retrain vs %zu-byte full records (%sx reduction, %llu "
              "anchors / %llu deltas)\n",
              retrain_users, retrain_rounds,
              format2(bytes_per_append(retrain)).c_str(),
              retrain.anchor_record_bytes,
              format2(reduction(retrain)).c_str(),
              static_cast<unsigned long long>(retrain.anchors_written),
              static_cast<unsigned long long>(retrain.deltas_written));
  std::printf("Retrain store: %zu segments, %llu compactions, %llu "
              "segments reclaimed\n",
              retrain.segments,
              static_cast<unsigned long long>(retrain.compactions),
              static_cast<unsigned long long>(retrain.reclaimed));

  const std::string timing_path = flags.get("timing-json");
  const auto emit = [&](const char* name, const ShapeRun& run) {
    const util::LatencyHistogram& lat = run.report.latency;
    std::ostringstream extra;
    extra << "\"users\": " << users << ", \"shards\": " << params.shards
          << ", \"active_per_round\": " << active
          << ", \"sessions\": " << run.sessions << ", \"sessions_per_sec\": "
          << (run.seconds > 0.0
                  ? static_cast<double>(run.sessions) / run.seconds
                  : 0.0)
          << ", \"pool_hit_rate\": " << rate(run)
          << ", \"p50_ns\": " << lat.quantile(0.50)
          << ", \"p99_ns\": " << lat.quantile(0.99)
          << ", \"p999_ns\": " << lat.quantile(0.999)
          << ", \"allocs_per_session\": " << run.allocs_per_session
          << ", \"steady_state_allocs_per_session\": "
          << run.steady_state_allocs
          << ", \"segment_bytes_per_retrain\": " << bytes_per_append(run)
          << ", \"segment_full_record_bytes\": " << run.anchor_record_bytes
          << ", \"append_reduction\": " << reduction(run)
          << ", \"index_bytes_per_user\": "
          << (static_cast<double>(run.index_slab_bytes) /
              static_cast<double>(users))
          << ", \"resident_bytes_per_user\": " << resident_per_user(run)
          << ", \"cold_start_scan_ms\": " << run.cold_start_ms
          << ", \"cold_start_records\": " << run.cold_scanned;
    exec::append_timing_record(timing_path, name, runner.jobs(), rounds,
                               run.seconds, extra.str());
  };
  emit("fleet_serve_uniform", flat);
  emit("fleet_serve", hot);
  {
    std::ostringstream extra;
    extra << "\"retrain_users\": " << retrain_users
          << ", \"retrain_rounds\": " << retrain_rounds
          << ", \"sessions\": " << retrain.sessions
          << ", \"sessions_per_sec\": "
          << (retrain.seconds > 0.0
                  ? static_cast<double>(retrain.sessions) / retrain.seconds
                  : 0.0)
          << ", \"segment_bytes_per_retrain\": " << bytes_per_append(retrain)
          << ", \"segment_full_record_bytes\": "
          << retrain.anchor_record_bytes
          << ", \"append_reduction\": " << reduction(retrain)
          << ", \"anchors_written\": " << retrain.anchors_written
          << ", \"deltas_written\": " << retrain.deltas_written
          << ", \"compactions\": " << retrain.compactions
          << ", \"reclaimed_segments\": " << retrain.reclaimed;
    exec::append_timing_record(timing_path, "fleet_retrain", runner.jobs(),
                               retrain_rounds, retrain.seconds, extra.str());
  }
  return 0;
}
