// P1 (DESIGN.md): micro-benchmarks of the hot paths, for the record the
// paper keeps implicitly ("running on IBM ThinkPad X32 with Pentium M
// 1.8 GHz") — absolute numbers differ on modern hardware, but the costs
// stay microscopic relative to the 10 Hz sensing cadence.

#include <benchmark/benchmark.h>

#include <bit>
#include <filesystem>
#include <numeric>

#include "adl/library.hpp"
#include "pavenet/detector.hpp"
#include "pavenet/node.hpp"
#include "patient/generator.hpp"
#include "planning/lane_trainer.hpp"
#include "planning/learner.hpp"
#include "rl/lane_kernels.hpp"
#include "serve/fleet_engine.hpp"
#include "serve/segment_store.hpp"
#include "serve/user_index.hpp"
#include "sensors/idle_lanes.hpp"
#include "sensors/models.hpp"
#include "sim/scheduler.hpp"
#include "trace/dataset.hpp"
#include "trace/sensing_pipeline.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"
// Global allocation counter (replaces this binary's operator new): the
// scheduler and train_episode benches assert their "zero allocations per
// event / episode at steady state" claims through it.
#include "util/alloc_counter.hpp"

namespace {

using namespace coreda;

void BM_TrainEpisode(benchmark::State& state) {
  adl::AdlLibrary library;
  planning::RoutineLearner learner(library.tea_making(), util::Rng(1));
  const std::vector<adl::StepId> steps{
      adl::tools::kTeaBox, adl::tools::kElectricPot, adl::tools::kKettle,
      adl::tools::kTeaCup};
  // Warm the scratch buffers past their growth phase, then assert the
  // training hot path's contract: allocs_per_episode == 0 at steady state.
  for (int i = 0; i < 8; ++i) learner.train_episode(steps);
  std::uint64_t episodes = 0;
  const std::uint64_t allocs_before = util::allocation_count();
  for (auto _ : state) {
    learner.train_episode(steps);
    ++episodes;
  }
  state.counters["allocs_per_episode"] =
      static_cast<double>(util::allocation_count() - allocs_before) /
      static_cast<double>(episodes);
}
BENCHMARK(BM_TrainEpisode);

void BM_Predict(benchmark::State& state) {
  adl::AdlLibrary library;
  planning::RoutineLearner learner(library.tea_making(), util::Rng(1));
  const std::vector<adl::StepId> steps{
      adl::tools::kTeaBox, adl::tools::kElectricPot, adl::tools::kKettle,
      adl::tools::kTeaCup};
  for (int i = 0; i < 120; ++i) learner.train_episode(steps);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        learner.predict(adl::tools::kTeaBox, adl::tools::kElectricPot));
  }
}
BENCHMARK(BM_Predict);

void BM_DetectorSample(benchmark::State& state) {
  pavenet::ThresholdDetector detector(0.3, 10, 3);
  double x = 0.1;
  for (auto _ : state) {
    x = x > 0.5 ? 0.1 : x + 0.07;
    benchmark::DoNotOptimize(detector.add_sample(x));
  }
}
BENCHMARK(BM_DetectorSample);

void BM_SensorSample(benchmark::State& state) {
  sensors::AccelerometerModel model;
  util::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.sample(sim::TimePoint::origin(), 0.7, 1.0, rng));
  }
}
BENCHMARK(BM_SensorSample);

// One idle 10-sample accelerometer window, as the batched firmware sees it
// between uses: every excitation through sample_block, then only the vote
// hits through sample_hits, whose idle shortcut skips the trig and the
// polar method's log/sqrt. Same draws either way.
constexpr std::size_t kIdleWindow = 10;

void BM_AccelIdleWindowSampleBlock(benchmark::State& state) {
  sensors::AccelerometerModel model;
  util::Rng rng(5);
  const double activations[kIdleWindow] = {};
  double out[kIdleWindow];
  for (auto _ : state) {
    model.sample_block(sim::TimePoint::origin(), sim::Duration::millis(100),
                       activations, kIdleWindow, 1.0, rng, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kIdleWindow));
}
BENCHMARK(BM_AccelIdleWindowSampleBlock);

void BM_AccelIdleWindowSampleHits(benchmark::State& state) {
  sensors::AccelerometerModel model;
  util::Rng rng(5);
  const double activations[kIdleWindow] = {};
  bool hits[kIdleWindow];
  for (auto _ : state) {
    model.sample_hits(sim::TimePoint::origin(), sim::Duration::millis(100),
                      activations, kIdleWindow, 1.0,
                      model.recommended_threshold(), rng, hits);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kIdleWindow));
}
BENCHMARK(BM_AccelIdleWindowSampleHits);

// The same idle windows, range(0) of them per iteration, through the idle
// lanes as a node bank's wake runs them, settling a window with at most
// range(1) doubtful samples (0: every sample a certain non-hit; 2: the
// firmware's 3-of-10 vote): a lane handed back takes the scalar
// sample_hits. Per-sample time against BM_AccelIdleWindowSampleHits
// locates the smallest batch worth the lanes (the firmware's
// kMinLaneBatch). Without AVX-512 every window takes the scalar path
// (settled_share 0).
void BM_AccelIdleWindowLanes(benchmark::State& state) {
  const auto lanes_used = static_cast<std::size_t>(state.range(0));
  const auto tolerance = static_cast<std::size_t>(state.range(1));
  sensors::AccelerometerModel model;
  sensors::IdleLane params{};
  model.idle_lane(model.recommended_threshold(), params);
  util::Rng streams[sensors::kIdleLanes];
  sensors::IdleLane lanes[sensors::kIdleLanes];
  for (std::size_t i = 0; i < sensors::kIdleLanes; ++i) {
    streams[i] = util::Rng(5 + i);
    lanes[i] = {&streams[i], params.bump_probability, params.s_min};
  }
  const double activations[kIdleWindow] = {};
  bool hits[kIdleWindow];
  std::uint64_t settled = 0;
  for (auto _ : state) {
    const std::uint32_t mask = sensors::settle_idle_windows(
        lanes, lanes_used, kIdleWindow, tolerance);
    benchmark::DoNotOptimize(mask);
    for (std::size_t i = 0; i < lanes_used; ++i) {
      if (((mask >> i) & 1u) != 0) continue;
      model.sample_hits(sim::TimePoint::origin(), sim::Duration::millis(100),
                        activations, kIdleWindow, 1.0,
                        model.recommended_threshold(), streams[i], hits);
      benchmark::DoNotOptimize(hits);
    }
    settled += static_cast<std::uint64_t>(std::popcount(mask));
  }
  const auto windows = static_cast<std::int64_t>(state.iterations()) *
                       static_cast<std::int64_t>(lanes_used);
  state.SetItemsProcessed(windows * static_cast<std::int64_t>(kIdleWindow));
  state.counters["settled_share"] =
      windows > 0 ? static_cast<double>(settled) / static_cast<double>(windows)
                  : 0.0;
}
BENCHMARK(BM_AccelIdleWindowLanes)->ArgsProduct({{1, 2, 3, 8}, {0, 2}});

// --- Scheduler hot paths ---------------------------------------------------
// Before the slot-pool rewrite every schedule_* call heap-allocated a
// shared_ptr<bool> control block and every periodic reschedule copied the
// std::function; the benches below record the rewrite's contract:
// allocs_per_event == 0 at steady state.

void BM_SchedulerOneShotScheduleFire(benchmark::State& state) {
  sim::Scheduler s;
  // Warm the slot pool and heap storage past their growth phase.
  for (int i = 0; i < 64; ++i) {
    s.schedule_after(sim::Duration::millis(1), [] {});
  }
  s.run();
  std::uint64_t events = 0;
  const std::uint64_t allocs_before = util::allocation_count();
  for (auto _ : state) {
    s.schedule_after(sim::Duration::millis(1), [] {});
    s.run(1);
    ++events;
  }
  state.counters["allocs_per_event"] =
      static_cast<double>(util::allocation_count() - allocs_before) /
      static_cast<double>(events);
}
BENCHMARK(BM_SchedulerOneShotScheduleFire);

void BM_SchedulerScheduleCancel(benchmark::State& state) {
  sim::Scheduler s;
  for (int i = 0; i < 64; ++i) {
    s.schedule_after(sim::Duration::millis(1), [] {}).cancel();
  }
  s.run();
  std::uint64_t events = 0;
  const std::uint64_t allocs_before = util::allocation_count();
  for (auto _ : state) {
    sim::EventHandle h = s.schedule_after(sim::Duration::millis(1), [] {});
    h.cancel();
    s.run_until(s.now());  // reaps the cancelled event without firing
    ++events;
  }
  state.counters["allocs_per_event"] =
      static_cast<double>(util::allocation_count() - allocs_before) /
      static_cast<double>(events);
}
BENCHMARK(BM_SchedulerScheduleCancel);

void BM_SchedulerPeriodicFire(benchmark::State& state) {
  // The dominant workload: a long-lived periodic series (a firmware task)
  // firing event after event. The series must reuse its slot and callback.
  sim::Scheduler s;
  std::uint64_t ticks = 0;
  s.schedule_periodic(sim::Duration::millis(100), [&ticks] { ++ticks; });
  s.run(64);  // steady state
  std::uint64_t events = 0;
  const std::uint64_t allocs_before = util::allocation_count();
  for (auto _ : state) {
    s.run(1);
    ++events;
  }
  benchmark::DoNotOptimize(ticks);
  state.counters["allocs_per_event"] =
      static_cast<double>(util::allocation_count() - allocs_before) /
      static_cast<double>(events);
}
BENCHMARK(BM_SchedulerPeriodicFire);

void BM_SchedulerManyPeriodicTasks(benchmark::State& state) {
  // Eight co-scheduled firmware tasks (one per instrumented tool) for one
  // virtual second per iteration — the per-trial scheduler load of a
  // deployment-sized simulation.
  sim::Scheduler s;
  std::uint64_t ticks = 0;
  for (int i = 0; i < 8; ++i) {
    s.schedule_periodic(sim::Duration::millis(100), [&ticks] { ++ticks; });
  }
  s.run_for(sim::Duration::seconds(1.0));
  for (auto _ : state) {
    s.run_for(sim::Duration::seconds(1.0));
  }
  benchmark::DoNotOptimize(ticks);
}
BENCHMARK(BM_SchedulerManyPeriodicTasks);

// --- Firmware sampling: per-tick vs batched --------------------------------
// 100 virtual seconds of one node with scripted manipulations; the batched
// task (FirmwareConfig::batch_sampling) takes the same samples with 10x
// fewer scheduler events.

void node_sampling_run(benchmark::State& state, bool batch) {
  adl::AdlLibrary library;
  for (auto _ : state) {
    sim::Scheduler scheduler;
    sensors::ManipulationWorld world;
    pavenet::RadioChannel channel(scheduler, util::Rng(1));
    pavenet::FirmwareConfig config;
    config.batch_sampling = batch;
    pavenet::PavenetNode node(library.tools().at(adl::tools::kKettle),
                              scheduler, world, channel, util::Rng(7),
                              config);
    node.power_on();
    for (int m = 0; m < 10; ++m) {
      scheduler.schedule_at(
          sim::TimePoint::from_seconds(m * 10.0 + 1.3), [&scheduler, &world] {
            world.begin(adl::tools::kKettle, scheduler.now(),
                        sim::Duration::seconds(6.0));
          });
    }
    scheduler.run_until(sim::TimePoint::from_seconds(100.0));
    node.power_off();
    benchmark::DoNotOptimize(node.samples());
  }
}

void BM_NodeSamplingPerTick(benchmark::State& state) {
  node_sampling_run(state, false);
}
BENCHMARK(BM_NodeSamplingPerTick)->Unit(benchmark::kMillisecond);

void BM_NodeSamplingBatched(benchmark::State& state) {
  node_sampling_run(state, true);
}
BENCHMARK(BM_NodeSamplingBatched)->Unit(benchmark::kMillisecond);

// A home's 15-node catalog in one NodeBank for the same 100 virtual
// seconds and kettle uses: one scheduler event per window for all nodes,
// idle accelerometer windows settled eight at a time. Items are samples.
void BM_NodeBankWake(benchmark::State& state) {
  adl::AdlLibrary library;
  std::uint64_t samples = 0;
  for (auto _ : state) {
    sim::Scheduler scheduler;
    sensors::ManipulationWorld world;
    pavenet::RadioChannel channel(scheduler, util::Rng(1));
    pavenet::NodeBank bank(scheduler, world, channel);
    util::Rng seeder(7);
    for (const adl::Tool& tool : library.tools().tools()) {
      bank.add(tool, seeder.fork());
    }
    bank.power_on();
    for (int m = 0; m < 10; ++m) {
      scheduler.schedule_at(
          sim::TimePoint::from_seconds(m * 10.0 + 1.3), [&scheduler, &world] {
            world.begin(adl::tools::kKettle, scheduler.now(),
                        sim::Duration::seconds(6.0));
          });
    }
    scheduler.run_until(sim::TimePoint::from_seconds(100.0));
    bank.power_off();
    for (const auto& node : bank.nodes()) samples += node->samples();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(samples));
}
BENCHMARK(BM_NodeBankWake)->Unit(benchmark::kMillisecond);

// --- P7 lane-engine & v3 snapshot kernels ----------------------------------
// The v3 delta codec is the nightly flush path; the counterfactual row
// backup is the lane engine's per-step sweep.

void BM_LaneCfUpdateRow(benchmark::State& state) {
  // One fused counterfactual row backup — the kernel behind the lane
  // engine's per-step full-row sweep.
  constexpr std::size_t kActions = 8;
  double row[kActions];
  double rewards[kActions];
  for (std::size_t a = 0; a < kActions; ++a) {
    row[a] = 1000.0 - static_cast<double>(a);
    rewards[a] = a == 3 ? 100.0 : -10.0;
  }
  for (auto _ : state) {
    rl::kern::cf_update(row, rewards, 0.9 * 900.0, 0.1, 3, kActions);
    benchmark::DoNotOptimize(row);
  }
}
BENCHMARK(BM_LaneCfUpdateRow);

void BM_LaneTrainerRound(benchmark::State& state) {
  // One nightly-shaped retrain round per iteration: eight slots each queue a
  // transcript from a fixed pool of noisy tea-making processes (patients of
  // severity 0.1-0.5, as perfbench's nightly_retrain draws them), then one
  // train_queued. Every 64 rounds — a user's nightly budget, 8 passes over
  // a ring of 8 — the slots restart from the donor table with a fresh ε.
  constexpr std::size_t kSlots = 8;
  constexpr std::size_t kRoundsPerUser = 64;
  adl::AdlLibrary library;
  const adl::Adl& tea = library.tea_making();
  std::vector<std::vector<adl::StepId>> pool;
  util::Rng seeder(20);
  for (std::size_t i = 0; i < 512; ++i) {
    const double severity = 0.1 + 0.4 * seeder.uniform();
    patient::BehaviorGenerator gen(
        tea, library.tools(),
        patient::PatientProfile::with_severity("T", severity), seeder.fork());
    pool.push_back(gen.noisy_steps());
  }
  planning::RoutineLearner donor(tea, util::Rng(17));
  for (std::size_t i = 0; i < 80; ++i) donor.train_episode(pool[i]);

  planning::LaneTrainer trainer(tea, kSlots, planning::LearnerConfig(), 64);
  std::size_t round = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    if (round % kRoundsPerUser == 0) {
      for (std::size_t i = 0; i < kSlots; ++i) {
        trainer.begin_retraining(i, donor.q(), util::Rng(round + i));
      }
    }
    for (std::size_t i = 0; i < kSlots; ++i) {
      trainer.queue_episode(i, pool[next]);
      next = next + 1 == pool.size() ? 0 : next + 1;
    }
    trainer.train_queued();
    ++round;
  }
  benchmark::DoNotOptimize(trainer.q_sum(0));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSlots);
}
BENCHMARK(BM_LaneTrainerRound);

void BM_RecordChecksum(benchmark::State& state) {
  // The store's integrity pass, paid on every append, on every record of a
  // chain load and on every record of a reopen scan: checksum64 over one
  // 1,512-byte anchor-sized body (a 25x8 Tea-making anchor hashes 1,632
  // bytes, [8, len - 8)). Time per iteration is time per record.
  std::vector<unsigned char> body(1512);
  util::Rng rng(3);
  for (std::size_t i = 0; i < body.size(); i += 8) {
    util::wire::store_u64(&body[i], rng());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(body.data());
    benchmark::DoNotOptimize(
        util::wire::checksum64(body.data(), body.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(body.size()));
}
BENCHMARK(BM_RecordChecksum);

void BM_SegmentDeltaAppend(benchmark::State& state) {
  // One fleet write-back on the delta path: diff the session's touched row
  // against the user's previous record and append a CRDADEL2 record into
  // the mmap tail (anchor every rebase_every-th iteration, amortized in).
  adl::AdlLibrary library;
  planning::RoutineLearner learner(library.tea_making(), util::Rng(1));
  const std::vector<adl::StepId> steps{
      adl::tools::kTeaBox, adl::tools::kElectricPot, adl::tools::kKettle,
      adl::tools::kTeaCup};
  for (int i = 0; i < 80; ++i) learner.train_episode(steps);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "coreda_micro_delta")
          .string();
  std::filesystem::remove_all(dir);
  serve::SegmentStoreParams params;
  params.dir = dir;
  params.compact_min_records = std::size_t{1} << 30;  // never compact
  serve::SegmentStore store(learner.state_codec().symbols(),
                            learner.action_codec().tools(),
                            learner.q().num_states(),
                            learner.q().num_actions(), params);
  store.reserve_users(1);
  rl::QTable q = learner.q();
  std::uint64_t version = 0;
  store.append(0, q, ++version);
  for (auto _ : state) {
    const auto s = static_cast<rl::StateId>(version % q.num_states());
    q.set(s, 0, q.get(s, 0) + 1.0);
    store.append(0, q, ++version);
    benchmark::DoNotOptimize(version);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(store.appended_bytes()));
  state.counters["bytes_per_append"] =
      static_cast<double>(store.appended_bytes()) /
      static_cast<double>(store.appends());
}
BENCHMARK(BM_SegmentDeltaAppend);

void BM_SegmentChainLoad(benchmark::State& state) {
  // Cold checkout of a user sitting at the deep end of a delta chain:
  // walk back-pointers to the anchor, then apply every delta forward.
  adl::AdlLibrary library;
  planning::RoutineLearner learner(library.tea_making(), util::Rng(1));
  const std::vector<adl::StepId> steps{
      adl::tools::kTeaBox, adl::tools::kElectricPot, adl::tools::kKettle,
      adl::tools::kTeaCup};
  for (int i = 0; i < 80; ++i) learner.train_episode(steps);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "coreda_micro_chain")
          .string();
  std::filesystem::remove_all(dir);
  serve::SegmentStoreParams params;
  params.dir = dir;
  params.rebase_every = 16;
  serve::SegmentStore store(learner.state_codec().symbols(),
                            learner.action_codec().tools(),
                            learner.q().num_states(),
                            learner.q().num_actions(), params);
  store.reserve_users(1);
  rl::QTable q = learner.q();
  for (std::uint64_t v = 1; v <= 16; ++v) {  // anchor + 15 deltas
    store.append(0, q, v);
    const auto s = static_cast<rl::StateId>(v % q.num_states());
    q.set(s, 0, q.get(s, 0) + 1.0);
  }
  rl::QTable scratch(q.num_states(), q.num_actions());
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.load(0, scratch));
  }
}
BENCHMARK(BM_SegmentChainLoad);

void BM_SegmentRoll(benchmark::State& state) {
  // One 1 MiB segment's worth of nightly write-back: roll onto a new tail,
  // then append full anchors of the tea table until it is full again (636
  // of them). Arg 1 rolls onto the recycled spare (scrub, header, rename;
  // the pages are resident), arg 0 onto a fresh file (open, ftruncate,
  // mmap, then a first-touch fault per page). Set-up runs untimed and
  // leaves the tail full; the timed sweep supersedes the segment before
  // it, so both variants also reclaim one segment.
  const bool recycled = state.range(0) == 1;
  adl::AdlLibrary library;
  planning::RoutineLearner learner(library.tea_making(), util::Rng(1));
  const std::vector<adl::StepId> steps{
      adl::tools::kTeaBox, adl::tools::kElectricPot, adl::tools::kKettle,
      adl::tools::kTeaCup};
  for (int i = 0; i < 80; ++i) learner.train_episode(steps);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "coreda_micro_roll").string();
  serve::SegmentStoreParams params;
  params.dir = dir;
  // Consecutive sweeps alternate two tables that differ in every row, so
  // every record is a full anchor, as after a real retrain.
  const rl::QTable& q = learner.q();
  rl::QTable nudged = q;
  for (rl::StateId s = 0; s < q.num_states(); ++s) {
    nudged.set(s, 0, q.get(s, 0) + 1.0);
  }
  const rl::QTable* tables[2] = {&q, &nudged};
  std::uint64_t users = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    auto store = std::make_unique<serve::SegmentStore>(
        learner.state_codec().symbols(), learner.action_codec().tools(),
        q.num_states(), q.num_actions(), params);
    users = (params.segment_bytes - 40) / store->anchor_record_bytes();
    store->reserve_users(users);
    // Sweep 1 fills segment 0. Sweep 2 fills segment 1 and empties
    // segment 0 into the spare.
    const std::uint64_t sweeps = recycled ? 2 : 1;
    for (std::uint64_t v = 1; v <= sweeps; ++v) {
      for (std::uint64_t u = 0; u < users; ++u) {
        store->append(u, *tables[v % 2], v);
      }
    }
    state.ResumeTiming();
    for (std::uint64_t u = 0; u < users; ++u) {
      store->append(u, *tables[(sweeps + 1) % 2], sweeps + 1);
    }
    benchmark::ClobberMemory();  // the records land in the mapping
    state.PauseTiming();
    store.reset();
    state.ResumeTiming();
  }
  std::filesystem::remove_all(dir);
  state.counters["records"] = static_cast<double>(users);
}
BENCHMARK(BM_SegmentRoll)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_SegmentStoreReopen(benchmark::State& state) {
  // The crash-recovery scan: reopen a store of 16,384 tea anchors in
  // Arg(0) writer lanes — 4 as fleet's set-up (seven 1 MiB segments per
  // lane), 1 as nightly's. The segments are verified on one job per lane,
  // then published serially. The store is built once, untimed; closing it
  // is untimed too.
  constexpr std::uint64_t kUsers = 16384;
  adl::AdlLibrary library;
  planning::RoutineLearner learner(library.tea_making(), util::Rng(1));
  const std::vector<adl::StepId> steps{
      adl::tools::kTeaBox, adl::tools::kElectricPot, adl::tools::kKettle,
      adl::tools::kTeaCup};
  for (int i = 0; i < 80; ++i) learner.train_episode(steps);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "coreda_micro_reopen")
          .string();
  std::filesystem::remove_all(dir);
  serve::SegmentStoreParams params;
  params.dir = dir;
  params.writers = static_cast<std::size_t>(state.range(0));
  const auto open = [&] {
    return std::make_unique<serve::SegmentStore>(
        learner.state_codec().symbols(), learner.action_codec().tools(),
        learner.q().num_states(), learner.q().num_actions(), params);
  };
  {
    auto store = open();
    store->reserve_users(kUsers);
    for (std::uint64_t u = 0; u < kUsers; ++u) store->append(u, learner.q(), 1);
  }
  std::uint64_t scanned = 0;
  for (auto _ : state) {
    auto store = open();
    scanned = store->scanned_records();
    benchmark::DoNotOptimize(scanned);
    state.PauseTiming();
    store.reset();
    state.ResumeTiming();
  }
  std::filesystem::remove_all(dir);
  state.counters["records"] = static_cast<double>(scanned);
}
BENCHMARK(BM_SegmentStoreReopen)->Arg(4)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_FleetRegister(benchmark::State& state) {
  // Registering a million users on a fleet whose store was reserved for
  // them (as after a reopen): one push_back and one compare per user, the
  // index never re-sized. Engine construction is untimed.
  constexpr std::uint64_t kUsers = 1'000'000;
  adl::AdlLibrary library;
  const adl::Adl& tea = library.tea_making();
  planning::RoutineLearner donor(tea, util::Rng(1));
  const std::string dir =
      (std::filesystem::temp_directory_path() / "coreda_micro_register")
          .string();
  std::filesystem::remove_all(dir);
  serve::SegmentStoreParams params;
  params.dir = dir;
  params.writers = 4;
  serve::SegmentStore store(donor.state_codec().symbols(),
                            donor.action_codec().tools(),
                            donor.q().num_states(), donor.q().num_actions(),
                            params);
  store.reserve_users(kUsers);
  serve::FleetEngineParams fleet_params;
  fleet_params.shards = 4;
  for (auto _ : state) {
    state.PauseTiming();
    auto fleet = std::make_unique<serve::FleetEngine>(library, tea, store,
                                                      donor.q(), fleet_params);
    state.ResumeTiming();
    fleet->reserve_users(kUsers);
    for (std::uint64_t u = 0; u < kUsers; ++u) {
      fleet->register_user(0.1 + 0.4 * static_cast<double>(u % 97) / 97.0);
    }
    benchmark::DoNotOptimize(fleet->num_users());
    state.PauseTiming();
    fleet.reset();
    state.ResumeTiming();
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kUsers));
}
BENCHMARK(BM_FleetRegister)->Unit(benchmark::kMillisecond);

void BM_UserIndexProbe(benchmark::State& state) {
  // The per-serve index lookup at fleet scale: 1M dense user ids in the
  // open-addressed robin-hood slab at 7/8 load, hit probes only.
  constexpr std::uint64_t kUsers = 1'000'000;
  serve::UserIndex index;
  index.reserve(kUsers);
  for (std::uint64_t u = 0; u < kUsers; ++u) {
    index.put(u, {static_cast<std::uint32_t>(u & 0x3FFF),
                  static_cast<std::uint32_t>(u & 0xFFFFF)});
  }
  serve::UserIndex::Loc loc;
  std::uint64_t u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.find(u, loc));
    u = (u + 777779) % kUsers;  // co-prime stride: visit every id
  }
  state.counters["slab_bytes_per_user"] =
      static_cast<double>(index.slab_bytes()) / static_cast<double>(kUsers);
}
BENCHMARK(BM_UserIndexProbe);

void BM_FullSensedEpisode(benchmark::State& state) {
  adl::AdlLibrary library;
  trace::SensingPipeline pipeline(library.tools(),
                                  library.tea_making().tools(), 9);
  patient::BehaviorGenerator gen(
      library.tea_making(), library.tools(),
      patient::PatientProfile::with_severity("U", 0.0), util::Rng(10));
  const auto episode = gen.timed_episode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.run(episode));
  }
}
BENCHMARK(BM_FullSensedEpisode)->Unit(benchmark::kMillisecond);

}  // namespace
