// SystemPool: checkout/residency accounting, policy import on swap,
// read-only sessions (no version moves), and static user->slot sharding.

#include "serve/system_pool.hpp"

#include <gtest/gtest.h>

#include "adl/library.hpp"

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
  SystemPool pool(store, params, library, library.tea_making());
  for (int u = 0; u < 20; ++u) {
    store.add_user();
  }

  const patient::PatientProfile profile = mild();
  core::SessionResult result;
  std::uint64_t completed = 0;
  for (int round = 0; round < 2; ++round) {
    for (UserId u = 0; u < 20; ++u) {
      pool.serve_session(u, profile, {}, result);
      completed += result.completed;
    }
  }
  EXPECT_EQ(pool.sessions(), 40u);
  EXPECT_EQ(pool.hits() + pool.swaps(), 40u);
  // Round-robin across 10 tenants per slot: the resident never matches.
  EXPECT_EQ(pool.swaps(), 40u);
  EXPECT_GT(completed, 35u);  // converged policy: nearly all complete
  for (UserId u = 0; u < 20; ++u) {
    EXPECT_EQ(store.version(u), 1u) << "user " << u;  // sessions write nothing
  }
}

TEST_F(SystemPoolFixture, ResidencySkipsTheImport) {
  planning::RoutineLearner donor = trained();
  PolicyStore store(donor);
  SystemPoolParams params;
  params.slots = 2;
  SystemPool pool(store, params, library, library.tea_making());
  const UserId a = store.add_user();  // slot 0
  const UserId b = store.add_user();  // slot 1
  const UserId c = store.add_user();  // slot 0 again

  const patient::PatientProfile profile = mild();
  core::SessionResult result;
  pool.serve_session(a, profile, {}, result);
  pool.serve_session(a, profile, {}, result);
  pool.serve_session(b, profile, {}, result);
  EXPECT_EQ(pool.swaps(), 2u);  // a's first serve + b's first serve
  EXPECT_EQ(pool.hits(), 1u);   // a's burst stayed resident
  EXPECT_EQ(pool.resident(0), a);
  EXPECT_EQ(pool.resident(1), b);

  pool.serve_session(c, profile, {}, result);
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
  SystemPool pool(store, params, library, library.tea_making());

  // User "blank" carries an untrained table, user "expert" the donor's:
  // after serving each, the slot learner must hold exactly that table.
  planning::RoutineLearner blank(library.tea_making(), util::Rng(1));
  const UserId expert = store.add_user(donor.q());
  const UserId untrained = store.add_user(blank.q());

  const patient::PatientProfile profile = mild();
  core::SessionResult result;
  pool.serve_session(expert, profile, {}, result);
  EXPECT_DOUBLE_EQ(pool.system(0).learner().greedy_accuracy(), 1.0);

  pool.serve_session(untrained, profile, {}, result);
  // The untrained table predicts no better than chance; its greedy
  // accuracy over the optimistic-init table is well below converged.
  EXPECT_LT(pool.system(0).learner().greedy_accuracy(), 1.0);

  // Serving wrote nothing back: both versions stay at their initial 1.
  EXPECT_EQ(store.version(expert), 1u);
  EXPECT_EQ(store.version(untrained), 1u);
}

TEST_F(SystemPoolFixture, ShardingIsStatic) {
  planning::RoutineLearner donor = trained();
  PolicyStore store(donor);
  SystemPoolParams params;
  params.slots = 3;
  SystemPool pool(store, params, library, library.tea_making());
  for (UserId u = 0; u < 9; ++u) {
    EXPECT_EQ(pool.slot_for(u), u % 3);
  }
  EXPECT_THROW(
      (void)SystemPool(store, SystemPoolParams{0, 1, {}}, library,
                       library.tea_making()),
      std::invalid_argument);
}

}  // namespace
}  // namespace coreda::serve
