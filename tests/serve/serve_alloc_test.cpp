// Pins the multi-tenant serving allocation contract: once the pool is
// warm, a full serve — checkout, policy import (every serve is a swap
// here), run_session_inplace, and the write-back into the PolicyStore —
// touches the heap zero times. This is what PR 3's per-system guarantee
// (tests/core/session_alloc_test.cpp) buys the serving tier: tenancy
// churn adds Q-table copies, and same-shape QTable assignment must reuse
// capacity rather than reallocate.
//
// alloc_counter.hpp replaces the global allocation functions of this whole
// test binary; it must stay included in exactly one TU of test_serve.

#include "util/alloc_counter.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "adl/library.hpp"
#include "serve/fleet_engine.hpp"
#include "serve/retrain_scheduler.hpp"
#include "serve/system_pool.hpp"

namespace coreda::serve {
namespace {

namespace T = adl::tools;

TEST(ServeAllocTest, ServeWithPolicySwapIsAllocationFreeAtSteadyState) {
  adl::AdlLibrary library;
  const adl::Adl& tea = library.tea_making();
  planning::RoutineLearner donor(tea, util::Rng(17));
  const std::vector<adl::StepId> routine{T::kTeaBox, T::kElectricPot,
                                         T::kKettle, T::kTeaCup};
  for (int i = 0; i < 80; ++i) donor.train_episode(routine);

  PolicyStore store(donor);  // memory-only: stage() must not allocate
  SystemPoolParams params;
  params.slots = 1;
  params.seed = 99;
  SystemPool pool(store, params, library, tea);
  store.add_user("A");
  store.add_user("B");

  // Same scripted session as the core allocation test: a correct step, a
  // freeze, and a wrong tool, with the minimal prompt always ignored so
  // the escalation branch fires too.
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

  // Alternating tenants on one slot: the resident never matches, so every
  // single serve takes the expensive path (import + write-back).
  core::SessionResult result;
  for (int i = 0; i < 16; ++i) {
    pool.serve_session(static_cast<UserId>(i % 2), profile,
                       sim::Duration::minutes(15.0), script, result);
  }
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(pool.hits(), 0u);
  ASSERT_EQ(pool.swaps(), 16u);

  const std::uint64_t before = util::allocation_count();
  for (int i = 0; i < 64; ++i) {
    pool.serve_session(static_cast<UserId>(i % 2), profile,
                       sim::Duration::minutes(15.0), script, result);
  }
  EXPECT_EQ(util::allocation_count() - before, 0u);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(pool.swaps(), 80u);
}

// The retraining tier's side of the contract: recording a transcript into
// the provisioned ring never allocates, and a retrain — import the user's
// table into the slot's warm trainer, replay the whole ring, stage the
// result back, count the job — touches the heap zero times after the first
// job has warmed the slot.
TEST(ServeAllocTest, TranscriptRecordingAndRetrainAreAllocationFreeWarm) {
  adl::AdlLibrary library;
  const adl::Adl& tea = library.tea_making();
  planning::RoutineLearner donor(tea, util::Rng(17));
  const std::vector<adl::StepId> routine{T::kTeaBox, T::kElectricPot,
                                         T::kKettle, T::kTeaCup};
  for (int i = 0; i < 80; ++i) donor.train_episode(routine);

  PolicyStore store(donor);  // memory-only: stage() must not allocate
  RetrainScheduler scheduler(tea, store, planning::LearnerConfig{},
                             /*slots=*/1);
  store.add_user("A");
  scheduler.add_user();

  for (std::size_t i = 0; i < kTranscriptRingCapacity; ++i) {
    scheduler.record(0, routine);
  }
  scheduler.retrain_user(0);  // warms the slot's trainer

  const std::uint64_t before = util::allocation_count();
  for (int i = 0; i < 64; ++i) scheduler.record(0, routine);
  for (int i = 0; i < 8; ++i) scheduler.retrain_user(0);
  EXPECT_EQ(util::allocation_count() - before, 0u);
  EXPECT_EQ(scheduler.counters().jobs, 9u);
  EXPECT_EQ(store.version(0), 10u);  // warm-up + 8 probed retrains staged
}

// The fleet tier's side: a warm drain over the mmap segment store —
// enqueue, evict-with-append, cold load from the mapping, import, serve,
// write back, record latency — is allocation-free per session. Only the
// TrialRunner's per-drain results vector may touch the heap, so a 128-
// session drain is allowed a small constant, not a per-session rate.
// Compaction thresholds are pushed out of reach: a compaction pass
// legitimately allocates (fresh segments), and the bench gate measures
// steady state between compactions.
TEST(ServeAllocTest, FleetDrainIsAllocationFreePerSessionWarm) {
  adl::AdlLibrary library;
  const adl::Adl& tea = library.tea_making();
  planning::RoutineLearner donor(tea, util::Rng(17));
  const std::vector<adl::StepId> routine{T::kTeaBox, T::kElectricPot,
                                         T::kKettle, T::kTeaCup};
  for (int i = 0; i < 80; ++i) donor.train_episode(routine);

  const std::string dir =
      ::testing::TempDir() + "/coreda_fleet_alloc";
  std::filesystem::remove_all(dir);
  SegmentStoreParams store_params;
  store_params.dir = dir;
  store_params.compact_min_records = std::size_t{1} << 20;  // never compact
  // Roomy segments: a mid-drain segment roll allocates (fresh mapping) and
  // would be noise here, exactly like compaction.
  store_params.segment_bytes = std::size_t{8} << 20;
  SegmentStore store(donor.state_codec().symbols(),
                     donor.action_codec().tools(), donor.q().num_states(),
                     donor.q().num_actions(), store_params);
  FleetEngineParams params;
  params.shards = 1;
  params.slots_per_shard = 1;  // alternating users force the eviction path
  params.system.learn_from_sessions = true;
  FleetEngine fleet(library, tea, store, donor.q(), params);
  fleet.register_user(0.2);
  fleet.register_user(0.4);

  exec::TrialRunner runner(1);
  for (int i = 0; i < 128; ++i) fleet.enqueue(i % 2);  // warms the queue
  fleet.drain(runner);

  const std::uint64_t before = util::allocation_count();
  for (int i = 0; i < 128; ++i) fleet.enqueue(i % 2);
  const FleetReport report = fleet.drain(runner);
  EXPECT_LE(util::allocation_count() - before, 2u);
  EXPECT_EQ(report.sessions, 256u);
  EXPECT_EQ(report.appends, 256u);  // every session wrote back into the mmap
}

// Cold-start contract: the scan-on-open does per-SEGMENT work on the heap
// (mapping the file, one index-slab reserve sized by the header's advisory
// record count) but ZERO allocations per record — that is what keeps a
// million-user reopen inside the cold-start budget. Witness: two stores
// identical in everything but record count (10x) must allocate EXACTLY the
// same number of times while reopening.
TEST(ServeAllocTest, ReopenScanAllocatesPerSegmentNotPerRecord) {
  adl::AdlLibrary library;
  const adl::Adl& tea = library.tea_making();
  planning::RoutineLearner donor(tea, util::Rng(17));
  const std::vector<adl::StepId> routine{T::kTeaBox, T::kElectricPot,
                                         T::kKettle, T::kTeaCup};
  for (int i = 0; i < 80; ++i) donor.train_episode(routine);

  SegmentStoreParams base;
  base.segment_bytes = std::size_t{4} << 20;  // everything fits one segment
  const auto build = [&](const std::string& dir, std::uint64_t users) {
    std::filesystem::remove_all(dir);
    SegmentStoreParams p = base;
    p.dir = dir;
    SegmentStore store(donor.state_codec().symbols(),
                       donor.action_codec().tools(), donor.q().num_states(),
                       donor.q().num_actions(), p);
    store.reserve_users(users);
    for (std::uint64_t u = 0; u < users; ++u) {
      store.append(u, donor.q(), 1);  // anchors
    }
    // Plus a short delta chain, so the scan's chain accounting is covered.
    rl::QTable q = donor.q();
    q.set(0, 0, 123.0);
    store.append(0, q, 2);
    q.set(1, 0, 456.0);
    store.append(0, q, 3);
  };
  const auto reopen_allocs = [&](const std::string& dir,
                                 std::uint64_t expect_records) {
    SegmentStoreParams p = base;
    p.dir = dir;
    const std::uint64_t before = util::allocation_count();
    SegmentStore reopened(donor.state_codec().symbols(),
                          donor.action_codec().tools(),
                          donor.q().num_states(), donor.q().num_actions(), p);
    const std::uint64_t allocs = util::allocation_count() - before;
    EXPECT_EQ(reopened.scanned_records(), expect_records);
    return allocs;
  };

  const std::string small_dir = ::testing::TempDir() + "/coreda_scan_small";
  const std::string large_dir = ::testing::TempDir() + "/coreda_scan_large";
  build(small_dir, 40);
  build(large_dir, 400);
  const std::uint64_t small = reopen_allocs(small_dir, 40 + 2);
  const std::uint64_t large = reopen_allocs(large_dir, 400 + 2);
  EXPECT_EQ(small, large) << "reopen allocations scale with record count";
}

TEST(ServeAllocTest, RegistrationInsideTheReservationIsAllocationFree) {
  adl::AdlLibrary library;
  planning::RoutineLearner donor(library.tea_making(), util::Rng(17));
  const std::string dir = ::testing::TempDir() + "/coreda_register_allocs";
  std::filesystem::remove_all(dir);
  SegmentStoreParams p;
  p.dir = dir;
  p.writers = 4;
  SegmentStore store(donor.state_codec().symbols(),
                     donor.action_codec().tools(), donor.q().num_states(),
                     donor.q().num_actions(), p);
  FleetEngineParams params;
  params.shards = 4;
  FleetEngine fleet(library, library.tea_making(), store, donor.q(), params);
  constexpr std::uint64_t kUsers = 100000;
  fleet.reserve_users(kUsers);
  const std::size_t slab = store.index_slab_bytes();
  const std::uint64_t before = util::allocation_count();
  for (std::uint64_t u = 0; u < kUsers; ++u) fleet.register_user(0.3);
  EXPECT_EQ(util::allocation_count() - before, 0u);
  EXPECT_EQ(store.index_slab_bytes(), slab);
  EXPECT_EQ(fleet.num_users(), kUsers);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace coreda::serve
