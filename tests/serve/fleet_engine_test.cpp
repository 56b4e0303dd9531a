// The fleet tier's contract: a sharded drain over the mmap segment store is
// byte-identical at any --jobs (the acceptance witness compares hexfloat
// Q-table dumps AND the raw segment files between a 1-job and a 4-job
// fleet), cold starts come out of the store (or the donor table exactly
// once), eviction never loses a learning user's updates, and write-back
// batching trades appends for bounded staleness.

#include "serve/fleet_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "adl/library.hpp"

namespace coreda::serve {
namespace {

namespace fs = std::filesystem;
namespace T = adl::tools;

planning::RoutineLearner make_donor(const adl::AdlLibrary& library) {
  planning::RoutineLearner learner(library.tea_making(), util::Rng(5));
  const std::vector<adl::StepId> routine{T::kTeaBox, T::kElectricPot,
                                         T::kKettle, T::kTeaCup};
  for (int i = 0; i < 80; ++i) learner.train_episode(routine);
  return learner;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf(std::ios::binary);
  buf << in.rdbuf();
  return buf.str();
}

struct FleetFixture : ::testing::Test {
  adl::AdlLibrary library;
  planning::RoutineLearner donor = make_donor(library);

  std::string fresh_dir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "/coreda_fleet_" + name;
    fs::remove_all(dir);
    return dir;
  }

  std::unique_ptr<SegmentStore> open_store(const std::string& dir,
                                           std::size_t writers) {
    SegmentStoreParams p;
    p.dir = dir;
    p.writers = writers;
    return std::make_unique<SegmentStore>(
        donor.state_codec().symbols(), donor.action_codec().tools(),
        donor.q().num_states(), donor.q().num_actions(), p);
  }
};

TEST_F(FleetFixture, ConstructorRejectsAWriterShardMismatch) {
  auto store = open_store(fresh_dir("mismatch"), 2);
  FleetEngineParams params;
  params.shards = 3;  // != store writers: the lock-free partitioning breaks
  EXPECT_THROW(FleetEngine(library, library.tea_making(), *store, donor.q(),
                           params),
               std::invalid_argument);
}

// The acceptance witness: two fleets with identical configuration and
// enqueue history, one drained on 1 job and one on 4, must leave
// byte-identical stores — same hexfloat dump of every stored table, same
// raw segment file bytes — and identical deterministic report fields.
// learn_from_sessions is ON so the tables actually diverge per user and a
// scheduling-order leak anywhere would show up in the dumped mantissas.
TEST_F(FleetFixture, DrainIsByteIdenticalAtOneAndFourJobs) {
  const std::string dir1 = fresh_dir("jobs1");
  const std::string dir4 = fresh_dir("jobs4");
  FleetEngineParams params;
  params.shards = 3;
  params.slots_per_shard = 2;
  params.system.learn_from_sessions = true;
  auto store1 = open_store(dir1, params.shards);
  auto store4 = open_store(dir4, params.shards);
  FleetEngine fleet1(library, library.tea_making(), *store1, donor.q(),
                     params);
  FleetEngine fleet4(library, library.tea_making(), *store4, donor.q(),
                     params);

  constexpr std::size_t kUsers = 13;  // not a multiple of shards on purpose
  for (std::size_t u = 0; u < kUsers; ++u) {
    const double severity = 0.15 + 0.05 * static_cast<double>(u % 7);
    ASSERT_EQ(fleet1.register_user(severity), u);
    ASSERT_EQ(fleet4.register_user(severity), u);
  }

  exec::TrialRunner serial(1);
  exec::TrialRunner pooled(4);
  FleetReport r1, r4;
  for (int round = 0; round < 3; ++round) {
    // A sparse, uneven active set: some users hammer, some never show.
    for (std::size_t u = 0; u < kUsers; ++u) {
      for (std::size_t s = 0; s < (u * (round + 1)) % 4; ++s) {
        fleet1.enqueue(u);
        fleet4.enqueue(u);
      }
    }
    r1 = fleet1.drain(serial);
    r4 = fleet4.drain(pooled);
  }
  fleet1.flush_residents();
  fleet4.flush_residents();

  EXPECT_GT(r1.sessions, 0u);
  EXPECT_EQ(r1.sessions, r4.sessions);
  EXPECT_EQ(r1.completed, r4.completed);
  EXPECT_EQ(r1.prompts, r4.prompts);
  EXPECT_EQ(r1.checksum, r4.checksum);
  EXPECT_EQ(r1.pool_hits, r4.pool_hits);
  EXPECT_EQ(r1.cold_loads, r4.cold_loads);
  EXPECT_EQ(r1.reference_starts, r4.reference_starts);
  EXPECT_EQ(r1.appends, r4.appends);
  EXPECT_EQ(r1.drift_flagged, r4.drift_flagged);
  for (std::size_t u = 0; u < kUsers; ++u) {
    EXPECT_EQ(fleet1.version(u), fleet4.version(u)) << "user " << u;
    EXPECT_EQ(fleet1.prompt_ewma(u), fleet4.prompt_ewma(u)) << "user " << u;
  }

  // Hexfloat dump: every stored table, every mantissa bit.
  std::ostringstream dump1, dump4;
  fleet1.dump_policies(dump1);
  fleet4.dump_policies(dump4);
  EXPECT_FALSE(dump1.str().empty());
  EXPECT_EQ(dump1.str(), dump4.str());

  // And the stores themselves: same file names, same bytes.
  std::vector<std::string> names1, names4;
  for (const fs::directory_entry& de : fs::directory_iterator(dir1)) {
    names1.push_back(de.path().filename().string());
  }
  for (const fs::directory_entry& de : fs::directory_iterator(dir4)) {
    names4.push_back(de.path().filename().string());
  }
  std::sort(names1.begin(), names1.end());
  std::sort(names4.begin(), names4.end());
  ASSERT_EQ(names1, names4);
  for (const std::string& name : names1) {
    EXPECT_EQ(read_file(fs::path(dir1) / name), read_file(fs::path(dir4) / name))
        << name;
  }
}

TEST_F(FleetFixture, ColdStartsLoadFromTheStoreAndDonorExactlyOnce) {
  const std::string dir = fresh_dir("cold");
  FleetEngineParams params;
  params.shards = 1;
  params.slots_per_shard = 1;  // one slot: users 0 and 1 evict each other
  params.system.learn_from_sessions = true;
  auto store = open_store(dir, params.shards);
  FleetEngine fleet(library, library.tea_making(), *store, donor.q(), params);
  fleet.register_user(0.2);
  fleet.register_user(0.4);

  exec::TrialRunner runner(1);
  fleet.enqueue(0);
  fleet.enqueue(0);  // back-to-back: the second serve is a pool hit
  fleet.enqueue(1);  // evicts user 0 — whose table must be appended first
  fleet.enqueue(0);  // cold again, now FROM THE STORE, not the donor
  const FleetReport report = fleet.drain(runner);

  EXPECT_EQ(report.sessions, 4u);
  EXPECT_EQ(report.pool_hits, 1u);
  EXPECT_EQ(report.reference_starts, 2u);  // first sight of users 0 and 1
  EXPECT_EQ(report.cold_loads, 1u);        // user 0's comeback
  EXPECT_EQ(fleet.version(0), 3u);
  EXPECT_EQ(fleet.version(1), 1u);
  // write_back_every=1 appends after every session (4) — eviction found
  // nothing unwritten to save.
  EXPECT_EQ(report.appends, 4u);
  EXPECT_EQ(store->latest_version(0), std::optional<std::uint64_t>{3});
  EXPECT_EQ(store->latest_version(1), std::optional<std::uint64_t>{1});
}

TEST_F(FleetFixture, WriteBackBatchingDefersAppendsUntilEvictionOrFlush) {
  const std::string dir = fresh_dir("batch");
  FleetEngineParams params;
  params.shards = 1;
  params.slots_per_shard = 1;
  params.system.learn_from_sessions = true;
  params.write_back_every = 4;
  auto store = open_store(dir, params.shards);
  FleetEngine fleet(library, library.tea_making(), *store, donor.q(), params);
  fleet.register_user(0.2);
  fleet.register_user(0.4);

  exec::TrialRunner runner(1);
  for (int i = 0; i < 3; ++i) fleet.enqueue(0);  // under the batch
  FleetReport report = fleet.drain(runner);
  EXPECT_EQ(report.appends, 0u);
  EXPECT_EQ(store->latest_version(0), std::nullopt);

  // Eviction must not lose the 3 unwritten sessions.
  fleet.enqueue(1);
  report = fleet.drain(runner);
  EXPECT_EQ(report.appends, 1u);
  EXPECT_EQ(store->latest_version(0), std::optional<std::uint64_t>{3});

  // And the post-drain flush persists the now-resident user 1.
  fleet.flush_residents();
  EXPECT_EQ(store->latest_version(1), std::optional<std::uint64_t>{1});
  EXPECT_EQ(store->appends(), 2u);
}

// A fleet restart: a fresh engine over the same store starts every comeback
// user from their stored table (cold_loads, no reference_starts), so the
// learning carried across the restart.
TEST_F(FleetFixture, RestartResumesFromStoredTables) {
  const std::string dir = fresh_dir("restart");
  FleetEngineParams params;
  params.shards = 2;
  params.slots_per_shard = 1;
  params.system.learn_from_sessions = true;
  std::ostringstream before;
  {
    auto store = open_store(dir, params.shards);
    FleetEngine fleet(library, library.tea_making(), *store, donor.q(),
                      params);
    fleet.register_user(0.2);
    fleet.register_user(0.5);
    exec::TrialRunner runner(1);
    for (int i = 0; i < 2; ++i) {
      fleet.enqueue(0);
      fleet.enqueue(1);
    }
    fleet.drain(runner);
    fleet.flush_residents();
    fleet.dump_policies(before);
  }

  auto store = open_store(dir, params.shards);
  FleetEngine fleet(library, library.tea_making(), *store, donor.q(), params);
  fleet.register_user(0.2);
  fleet.register_user(0.5);
  std::ostringstream after;
  fleet.dump_policies(after);
  EXPECT_EQ(before.str(), after.str());  // the restart changed nothing

  exec::TrialRunner runner(1);
  fleet.enqueue(0);
  fleet.enqueue(1);
  const FleetReport report = fleet.drain(runner);
  EXPECT_EQ(report.cold_loads, 2u);
  EXPECT_EQ(report.reference_starts, 0u);
  // Versions continue from the stored ones, not from 0.
  EXPECT_EQ(store->latest_version(0), std::optional<std::uint64_t>{3});
}

// The tentpole budget: a registered-but-idle user may cost at most 16
// bytes of resident RAM — the engine's packed u32 plus the store's index
// slab share. (An *active* user additionally borrows a pool slot, which is
// bounded by shards * slots_per_shard, not by fleet size.)
TEST_F(FleetFixture, ResidentStateStaysUnderSixteenBytesPerUser) {
  const std::string dir = fresh_dir("budget");
  FleetEngineParams params;
  params.shards = 4;
  auto store = open_store(dir, params.shards);
  FleetEngine fleet(library, library.tea_making(), *store, donor.q(), params);

  constexpr std::uint64_t kUsers = 20000;
  fleet.reserve_users(kUsers);
  for (std::uint64_t u = 0; u < kUsers; ++u) {
    fleet.register_user(0.1 + 0.8 * static_cast<double>(u % 100) / 100.0);
  }
  ASSERT_EQ(fleet.num_users(), kUsers);
  EXPECT_EQ(fleet.resident_state_bytes(), kUsers * 4);
  const double per_user =
      static_cast<double>(fleet.resident_state_bytes() +
                          store->index_slab_bytes()) /
      static_cast<double>(kUsers);
  EXPECT_LT(per_user, 16.0);

  // The derived version costs no resident bytes and still reads correctly
  // before any session.
  EXPECT_EQ(fleet.version(0), 0u);
  EXPECT_EQ(fleet.version(kUsers - 1), 0u);
}

// Drift flagging comes out of the packed EWMA: with the threshold at zero
// every session flags; with it unreachable none do; and the EWMA itself is
// readable (and zero before a user's first session).
TEST_F(FleetFixture, DriftFlaggingFollowsThePackedEwma) {
  const std::string dir = fresh_dir("drift");
  FleetEngineParams params;
  params.shards = 1;
  params.slots_per_shard = 1;
  params.drift_threshold = 0.0;
  auto store = open_store(dir, params.shards);
  FleetEngine fleet(library, library.tea_making(), *store, donor.q(), params);
  fleet.register_user(0.3);
  fleet.register_user(0.6);
  EXPECT_EQ(fleet.prompt_ewma(0), 0.0);  // unprimed

  exec::TrialRunner runner(1);
  for (int i = 0; i < 3; ++i) fleet.enqueue(0);
  fleet.enqueue(1);
  const FleetReport report = fleet.drain(runner);
  EXPECT_EQ(report.sessions, 4u);
  EXPECT_EQ(report.drift_flagged, 4u);  // threshold 0: every session flags
  EXPECT_GE(fleet.prompt_ewma(0), 0.0);
  EXPECT_LE(fleet.prompt_ewma(0), 255.0 / 8.0);

  // Same traffic, unreachable threshold: nothing flags (the EWMA tops out
  // at 31.875 prompts/session by construction).
  const std::string dir2 = fresh_dir("drift_quiet");
  FleetEngineParams quiet = params;
  quiet.drift_threshold = 1000.0;
  auto store2 = open_store(dir2, quiet.shards);
  FleetEngine fleet2(library, library.tea_making(), *store2, donor.q(),
                     quiet);
  fleet2.register_user(0.3);
  fleet2.register_user(0.6);
  for (int i = 0; i < 3; ++i) fleet2.enqueue(0);
  fleet2.enqueue(1);
  EXPECT_EQ(fleet2.drain(runner).drift_flagged, 0u);
}

}  // namespace
}  // namespace coreda::serve
