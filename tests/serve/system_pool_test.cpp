// SystemPool: checkout/residency accounting, policy import on swap,
// write-back versioning, and static user->slot sharding — for single-ADL
// slots and for whole-home slots, whose users check their whole policy
// set (every ADL) in and out as one record.

#include "serve/system_pool.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>

#include "adl/library.hpp"
#include "exec/trial_runner.hpp"
#include "serve/scenario_runner.hpp"

namespace coreda::serve {
namespace {

namespace T = adl::tools;

struct SystemPoolFixture : ::testing::Test {
  adl::AdlLibrary library;

  planning::RoutineLearner trained() {
    planning::RoutineLearner learner(library.tea_making(), util::Rng(5));
    const std::vector<adl::StepId> steps{T::kTeaBox, T::kElectricPot,
                                         T::kKettle, T::kTeaCup};
    for (int i = 0; i < 80; ++i) learner.train_episode(steps);
    return learner;
  }

  patient::PatientProfile mild() {
    return patient::PatientProfile::with_severity("U", 0.2);
  }
};

TEST_F(SystemPoolFixture, ServesTenTimesMoreUsersThanSlots) {
  planning::RoutineLearner donor = trained();
  PolicyStore store(donor);
  SystemPoolParams params;
  params.slots = 2;
  SystemPool pool(store, params,
                  SystemPool::single_adl(library, library.tea_making()));
  for (int u = 0; u < 20; ++u) {
    store.add_user("U" + std::to_string(u));
  }

  const patient::PatientProfile profile = mild();
  core::SessionResult result;
  std::uint64_t completed = 0;
  for (int round = 0; round < 2; ++round) {
    for (UserId u = 0; u < 20; ++u) {
      pool.serve_session(u, profile, sim::Duration::minutes(15.0), {},
                         result);
      completed += result.completed;
    }
  }
  EXPECT_EQ(pool.sessions(), 40u);
  EXPECT_EQ(pool.hits() + pool.swaps(), 40u);
  // Round-robin across 10 tenants per slot: the resident never matches.
  EXPECT_EQ(pool.swaps(), 40u);
  EXPECT_GT(completed, 35u);  // converged policy: nearly all complete
  EXPECT_EQ(store.staged_writes(), 40u);  // every serve wrote back
}

TEST_F(SystemPoolFixture, ResidencySkipsTheImport) {
  planning::RoutineLearner donor = trained();
  PolicyStore store(donor);
  SystemPoolParams params;
  params.slots = 2;
  SystemPool pool(store, params,
                  SystemPool::single_adl(library, library.tea_making()));
  const UserId a = store.add_user("a");  // slot 0
  const UserId b = store.add_user("b");  // slot 1
  const UserId c = store.add_user("c");  // slot 0 again

  const patient::PatientProfile profile = mild();
  core::SessionResult result;
  pool.serve_session(a, profile, sim::Duration::minutes(15.0), {}, result);
  pool.serve_session(a, profile, sim::Duration::minutes(15.0), {}, result);
  pool.serve_session(b, profile, sim::Duration::minutes(15.0), {}, result);
  EXPECT_EQ(pool.swaps(), 2u);  // a's first serve + b's first serve
  EXPECT_EQ(pool.hits(), 1u);   // a's burst stayed resident
  EXPECT_EQ(pool.resident(0), a);
  EXPECT_EQ(pool.resident(1), b);

  pool.serve_session(c, profile, sim::Duration::minutes(15.0), {}, result);
  EXPECT_EQ(pool.resident(0), c);  // c evicted a from their shared slot
  EXPECT_EQ(pool.swaps(), 3u);
  EXPECT_EQ(pool.slot_sessions(0), 3u);
  EXPECT_EQ(pool.slot_sessions(1), 1u);
}

TEST_F(SystemPoolFixture, SwapImportsTheUsersLatestTable) {
  planning::RoutineLearner donor = trained();
  PolicyStore store(donor);
  SystemPoolParams params;
  params.slots = 1;
  SystemPool pool(store, params,
                  SystemPool::single_adl(library, library.tea_making()));

  // User "blank" carries an untrained table, user "expert" the donor's:
  // after serving each, the slot learner must hold exactly that table.
  planning::RoutineLearner blank(library.tea_making(), util::Rng(1));
  const UserId expert = store.add_user("expert", donor.q());
  const UserId untrained = store.add_user("blank", blank.q());

  const patient::PatientProfile profile = mild();
  core::SessionResult result;
  pool.serve_session(expert, profile, sim::Duration::minutes(15.0), {},
                     result);
  EXPECT_DOUBLE_EQ(pool.system(0).learner().greedy_accuracy(), 1.0);

  pool.serve_session(untrained, profile, sim::Duration::minutes(15.0), {},
                     result);
  // The untrained table predicts no better than chance; its greedy
  // accuracy over the optimistic-init table is well below converged.
  EXPECT_LT(pool.system(0).learner().greedy_accuracy(), 1.0);

  // And the write-back bumped both versions past their initial 1.
  EXPECT_EQ(store.version(expert), 2u);
  EXPECT_EQ(store.version(untrained), 2u);
}

TEST_F(SystemPoolFixture, ShardingIsStatic) {
  planning::RoutineLearner donor = trained();
  PolicyStore store(donor);
  SystemPoolParams params;
  params.slots = 3;
  SystemPool pool(store, params,
                  SystemPool::single_adl(library, library.tea_making()));
  for (UserId u = 0; u < 9; ++u) {
    EXPECT_EQ(pool.slot_for(u), u % 3);
  }
  EXPECT_THROW(
      (void)SystemPool(store, SystemPoolParams{0, 1, {}},
                       SystemPool::single_adl(library, library.tea_making())),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Whole-home slots: a pretrained donor's recognizer and baseline policies.
// ---------------------------------------------------------------------------

namespace fs = std::filesystem;

bool bit_equal(const rl::QTable& a, const rl::QTable& b) {
  for (rl::StateId s = 0; s < a.num_states(); ++s) {
    if (std::memcmp(a.row(s).data(), b.row(s).data(),
                    a.row(s).size_bytes()) != 0) {
      return false;
    }
  }
  return a.num_states() == b.num_states() &&
         a.num_actions() == b.num_actions();
}

std::map<std::string, std::vector<char>> snapshot(const std::string& dir) {
  std::map<std::string, std::vector<char>> files;
  for (const fs::directory_entry& de : fs::directory_iterator(dir)) {
    std::ifstream in(de.path(), std::ios::binary);
    files[de.path().filename().string()] = {std::istreambuf_iterator<char>(in),
                                            std::istreambuf_iterator<char>()};
  }
  return files;
}

struct WholeHomeSlotFixture : ::testing::Test {
  adl::AdlLibrary library;
  core::HomeDeployment donor{library, core::SystemConfig{.seed = 99}};

  void SetUp() override { donor.pretrain(120, 7); }

  /// The scenario runner's slots: a whole home that adopted the donor's
  /// recognizer, with recognition-gated switching on.
  SystemPool::Builder whole_home() {
    return [this](const core::SystemConfig& config) {
      auto home = std::make_unique<core::HomeDeployment>(library, config);
      home->adopt_recognizer(donor.recognizer());
      home->set_tracker_params({.switch_window = 2,
                                .switch_threshold = 0.8,
                                .switch_patience = 1});
      return home;
    };
  }

  static SystemPoolParams pool_params(std::size_t slots = 2) {
    SystemPoolParams params;
    params.slots = slots;
    params.seed = 99;
    return params;
  }

  static PolicyStoreParams on_disk(const std::string& dir,
                                   std::size_t writers = 1) {
    PolicyStoreParams params;
    params.flush_every = 1;
    params.segments.dir = dir;
    params.segments.writers = writers;
    return params;
  }

  static std::string fresh_dir(const char* name) {
    const std::string dir = ::testing::TempDir() + "/coreda_home_pool_" + name;
    fs::remove_all(dir);
    return dir;
  }

  /// The interleaved shape: start the tea, brush teeth, come back.
  static core::SessionScript interleaved() {
    core::SessionScript script;
    script.hint = "Tea-making";
    script.parts.resize(3);
    script.parts[0].adl = "Tea-making";
    script.parts[0].steps = 2;
    script.parts[1].adl = "Tooth-brushing";
    script.parts[2].adl = "Tea-making";
    script.parts[2].resume = true;
    return script;
  }

  static patient::PatientProfile mild() {
    patient::PatientProfile profile =
        patient::PatientProfile::with_severity("Tanaka", 0.3);
    profile.comply_minimal = 1.0;
    profile.comply_specific = 1.0;
    return profile;
  }

  static sim::Duration deadline() { return sim::Duration::minutes(45); }

  /// Whether every table of the user's stored set equals `home`'s
  /// planners, bit for bit.
  static bool holds(const PolicyStore& store, UserId user,
                    const core::HomeDeployment& home) {
    for (std::size_t t = 0; t < home.adls().size(); ++t) {
      if (!bit_equal(store.q(user, t),
                     home.learner(home.adls()[t].name()).q())) {
        return false;
      }
    }
    return true;
  }
};

TEST_F(WholeHomeSlotFixture, ServeRoundTripStagesTheWholeSet) {
  PolicyStore store(donor);
  ASSERT_EQ(store.num_tables(), library.adls().size());
  const UserId user = store.add_user("Tanaka");
  SystemPool pool(store, pool_params(), whole_home());

  EXPECT_EQ(store.version(user), 1u);
  EXPECT_TRUE(holds(store, user, donor));  // starts at the donor baseline
  const core::HomeScriptResult result =
      pool.serve_script(user, interleaved(), mild(), deadline());

  // The interleaved script serves multiple ADLs inside one session...
  EXPECT_EQ(result.segments, 3u);
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.session.segment_switches, 2u);
  // ...and stages the user's whole policy set back as one version.
  EXPECT_EQ(store.version(user), 2u);
  EXPECT_TRUE(holds(store, user, pool.system(pool.slot_for(user))));

  pool.serve_script(user, interleaved(), mild(), deadline());
  EXPECT_EQ(store.version(user), 3u);
  EXPECT_EQ(store.rejected_records(), 0u);
}

TEST_F(WholeHomeSlotFixture, ResidencyCountersTrackHitsAndSwaps) {
  PolicyStore store(donor);
  const UserId a = store.add_user("A");  // slot 0
  store.add_user("B");
  const UserId c = store.add_user("C");  // slot 0: evicts A
  SystemPool pool(store, pool_params(), whole_home());

  pool.serve_script(a, interleaved(), mild(), deadline());
  pool.serve_script(a, interleaved(), mild(), deadline());  // resident: hit
  pool.serve_script(c, interleaved(), mild(), deadline());  // evicts A
  pool.serve_script(a, interleaved(), mild(), deadline());  // re-imports A

  EXPECT_EQ(pool.sessions(), 4u);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.swaps(), 3u);
  EXPECT_EQ(pool.resident(0), a);
  EXPECT_TRUE(holds(store, a, pool.system(0)));
}

TEST_F(WholeHomeSlotFixture, RestartRestoresFromDisk) {
  const std::string dir = fresh_dir("restart");
  std::vector<rl::QTable> staged;
  {
    PolicyStore store(donor, on_disk(dir));
    const UserId user = store.add_user("Tanaka");
    SystemPool pool(store, pool_params(), whole_home());
    pool.serve_script(user, interleaved(), mild(), deadline());
    EXPECT_EQ(store.disk_writes(), 1u);  // the whole set: one record
    for (std::size_t t = 0; t < store.num_tables(); ++t) {
      staged.push_back(store.q(user, t));
    }
  }

  // Cold restart: a new store over the same directory recovers every table
  // bit for bit, and a new pool serves from them.
  PolicyStore store(donor, on_disk(dir));
  const UserId user = store.add_user("Tanaka");
  EXPECT_EQ(store.restore_all(), 1u);
  EXPECT_EQ(store.rejected_records(), 0u);
  EXPECT_EQ(store.version(user), 2u);
  for (std::size_t t = 0; t < staged.size(); ++t) {
    EXPECT_TRUE(bit_equal(store.q(user, t), staged[t])) << "table " << t;
  }
  SystemPool pool(store, pool_params(), whole_home());
  EXPECT_TRUE(
      pool.serve_script(user, interleaved(), mild(), deadline()).completed);
  fs::remove_all(dir);
}

TEST_F(WholeHomeSlotFixture, CorruptRecordFallsBackToTheDonorBaseline) {
  const std::string dir = fresh_dir("corrupt");
  {
    PolicyStore store(donor, on_disk(dir));
    SystemPool pool(store, pool_params(), whole_home());
    pool.serve_script(store.add_user("A"), interleaved(), mild(), deadline());
  }
  PolicyStore store(donor, on_disk(dir));
  const UserId a = store.add_user("A");
  // Bit rot after the open-time scan, deep in the record's tables.
  {
    std::fstream f(dir + "/seg-w0-000000.seg",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(40 + 2000);
    const int byte = f.get();
    f.seekp(40 + 2000);
    f.put(static_cast<char>(byte ^ 0x40));
  }
  // The torn set is rejected as a whole and counted; the user serves from
  // the donor baseline and stages a fresh, valid set over it.
  EXPECT_EQ(store.restore_all(), 0u);
  EXPECT_EQ(store.rejected_records(), 1u);
  EXPECT_EQ(store.version(a), 1u);
  EXPECT_TRUE(holds(store, a, donor));
  SystemPool pool(store, pool_params(), whole_home());
  EXPECT_TRUE(
      pool.serve_script(a, interleaved(), mild(), deadline()).completed);
  EXPECT_EQ(store.segments()->latest_version(a),
            std::optional<std::uint64_t>{2});
  std::vector<rl::QTable> fresh;
  for (std::size_t t = 0; t < store.num_tables(); ++t) {
    fresh.push_back(store.q(a, t));
  }
  // The replacement loads cleanly: a full set, not a delta on the rot.
  EXPECT_EQ(store.restore(a), std::optional<std::uint64_t>{2});
  EXPECT_EQ(store.rejected_records(), 1u);
  for (std::size_t t = 0; t < fresh.size(); ++t) {
    EXPECT_TRUE(bit_equal(store.q(a, t), fresh[t])) << "table " << t;
  }
  fs::remove_all(dir);
}

TEST_F(WholeHomeSlotFixture, ScenarioRunnerIsJobsInvariant) {
  sim::ScenarioPlan plan;
  plan.seed = 7;
  plan.users = 3;
  plan.rounds = 2;
  plan.severity = 0.3;
  plan.severity_drift = 0.05;
  plan.compliance_decay = 0.02;
  plan.hint = "Tea-making";
  plan.parts = {sim::ScenarioPart{.adl = "Tea-making", .steps = 2},
                sim::ScenarioPart{.adl = "Tooth-brushing"},
                sim::ScenarioPart{.adl = "Tea-making", .resume = true}};

  ScenarioRunnerParams params;
  params.slots = 2;
  const ScenarioRunner runner(params);
  const ScenarioSummary serial = runner.run(plan, 1);
  const ScenarioSummary parallel = runner.run(plan, 4);

  EXPECT_EQ(serial.sessions, 6u);
  EXPECT_GT(serial.prompts, 0u);
  EXPECT_GT(serial.segment_switches, 0u);
  EXPECT_EQ(serial.rejected_records, 0u);
  EXPECT_EQ(serial.checksum, parallel.checksum);
  EXPECT_EQ(serial.prompts, parallel.prompts);
  EXPECT_EQ(serial.completed_sessions, parallel.completed_sessions);
  EXPECT_EQ(serial.wrong_tool_recoveries, parallel.wrong_tool_recoveries);
  EXPECT_EQ(serial.pool_swaps, parallel.pool_swaps);
}

TEST_F(WholeHomeSlotFixture, DurableWriteBackIsJobsInvariant) {
  // Four slot trials append whole-home sets concurrently, each through its
  // own writer lane (user % 4): the store's bytes and every restored table
  // are the same at any job count. tools/run_tsan.sh runs this under TSan.
  constexpr std::size_t kSlots = 4;
  constexpr UserId kUsers = 8;
  const auto serve_all = [&](std::size_t jobs, const std::string& dir) {
    PolicyStore store(donor, on_disk(dir, kSlots));
    for (UserId u = 0; u < kUsers; ++u) store.add_user("U" + std::to_string(u));
    SystemPool pool(store, pool_params(kSlots), whole_home());
    exec::TrialRunner runner(jobs);
    runner.run(kSlots, 0, [&](exec::TrialContext& ctx) -> char {
      for (int round = 0; round < 2; ++round) {
        for (UserId u = 0; u < kUsers; ++u) {
          if (pool.slot_for(u) != ctx.index) continue;
          pool.serve_script(u, interleaved(), mild(), deadline());
        }
      }
      return 0;
    });
    EXPECT_EQ(store.disk_writes(), 2u * kUsers);
  };
  const std::string serial = fresh_dir("jobs1");
  const std::string parallel = fresh_dir("jobs4");
  serve_all(1, serial);
  serve_all(4, parallel);
  EXPECT_EQ(snapshot(serial), snapshot(parallel));

  PolicyStore a(donor, on_disk(serial, kSlots));
  PolicyStore b(donor, on_disk(parallel, kSlots));
  for (UserId u = 0; u < kUsers; ++u) {
    a.add_user("U" + std::to_string(u));
    b.add_user("U" + std::to_string(u));
  }
  EXPECT_EQ(a.restore_all(), kUsers);
  EXPECT_EQ(b.restore_all(), kUsers);
  for (UserId u = 0; u < kUsers; ++u) {
    EXPECT_EQ(a.version(u), 3u);
    for (std::size_t t = 0; t < a.num_tables(); ++t) {
      EXPECT_TRUE(bit_equal(a.q(u, t), b.q(u, t))) << u << "/" << t;
    }
  }
  fs::remove_all(serial);
  fs::remove_all(parallel);
}

}  // namespace
}  // namespace coreda::serve
