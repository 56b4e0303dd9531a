// ServeEngine: deterministic multi-tenant drains at any --jobs, serving
// report accounting, and the prompt-rate drift detector.

#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include "adl/library.hpp"

namespace coreda::serve {
namespace {

namespace T = adl::tools;

struct EngineFixture : ::testing::Test {
  adl::AdlLibrary library;

  planning::RoutineLearner trained() {
    planning::RoutineLearner learner(library.tea_making(), util::Rng(5));
    const std::vector<adl::StepId> steps{T::kTeaBox, T::kElectricPot,
                                         T::kKettle, T::kTeaCup};
    for (int i = 0; i < 80; ++i) learner.train_episode(steps);
    return learner;
  }

  /// A standard 12-user engine over `store` with 3 pool slots; sessions
  /// are enqueued in two bursts per user.
  ServeReport standard_drain(PolicyStore& store, std::size_t jobs) {
    ServeEngineParams params;
    params.pool.slots = 3;
    params.pool.seed = 777;
    ServeEngine engine(library, library.tea_making(), store, params);
    for (std::size_t u = 0; u < 12; ++u) {
      util::Rng rng(exec::trial_seed(31, u));
      engine.add_user("U" + std::to_string(u),
                      patient::PatientProfile::with_severity(
                          "U", 0.1 + 0.4 * rng.uniform()));
    }
    for (int round = 0; round < 2; ++round) {
      for (UserId u = 0; u < 12; ++u) engine.enqueue(u, 3);
    }
    exec::TrialRunner runner(jobs);
    return engine.drain(runner);
  }
};

TEST_F(EngineFixture, DrainIsByteIdenticalAtAnyJobCount) {
  planning::RoutineLearner donor = trained();
  PolicyStore store1(donor);
  const ServeReport serial = standard_drain(store1, 1);
  PolicyStore store4(donor);
  const ServeReport parallel = standard_drain(store4, 4);

  EXPECT_EQ(serial.sessions, 72u);
  EXPECT_EQ(serial.sessions, parallel.sessions);
  EXPECT_EQ(serial.completed, parallel.completed);
  EXPECT_EQ(serial.prompts, parallel.prompts);
  EXPECT_EQ(serial.checksum, parallel.checksum);
  EXPECT_EQ(serial.pool_hits, parallel.pool_hits);
  EXPECT_EQ(serial.policy_swaps, parallel.policy_swaps);
  EXPECT_EQ(serial.flagged_users, parallel.flagged_users);
  ASSERT_EQ(serial.users.size(), parallel.users.size());
  for (std::size_t u = 0; u < serial.users.size(); ++u) {
    EXPECT_EQ(serial.users[u].checksum, parallel.users[u].checksum) << u;
    EXPECT_EQ(serial.users[u].sessions, parallel.users[u].sessions) << u;
    EXPECT_DOUBLE_EQ(serial.users[u].prompt_ewma,
                     parallel.users[u].prompt_ewma)
        << u;
  }
}

TEST_F(EngineFixture, ReportAccountingIsConsistent) {
  planning::RoutineLearner donor = trained();
  PolicyStore store(donor);
  const ServeReport report = standard_drain(store, 2);

  EXPECT_EQ(report.pool_hits + report.policy_swaps, report.sessions);
  // Bursts of 3 on 4 tenants per slot: each burst opens with a swap and
  // keeps residency for the remaining 2 sessions.
  EXPECT_EQ(report.policy_swaps, 24u);
  EXPECT_EQ(report.pool_hits, 48u);
  EXPECT_EQ(report.staged_writes, report.sessions);  // write-back per serve
  EXPECT_EQ(report.disk_writes, 0u);                 // memory-only store
  std::uint64_t sessions = 0;
  for (const ServeUserStats& u : report.users) sessions += u.sessions;
  EXPECT_EQ(sessions, report.sessions);
  // Every user's table was written back at least once per session.
  EXPECT_EQ(store.version(0), 1u + report.users[0].sessions);
}

TEST_F(EngineFixture, DriftDetectorFlagsThePromptStorm) {
  planning::RoutineLearner donor = trained();
  PolicyStore store(donor);
  ServeEngineParams params;
  params.pool.slots = 2;
  params.drift.threshold = 3.0;
  ServeEngine engine(library, library.tea_making(), store, params);

  // A mild user the converged policy barely prompts, and a drifted user
  // whose every decision stalls or grabs the wrong tool — the prompt-rate
  // spike the detector exists for.
  patient::PatientProfile drifted =
      patient::PatientProfile::with_severity("Drifted", 0.95);
  drifted.comply_minimal = 0.3;
  const UserId calm = engine.add_user(
      "Calm", patient::PatientProfile::with_severity("Calm", 0.05));
  const UserId stormy = engine.add_user("Stormy", drifted);

  engine.enqueue(calm, 8);
  engine.enqueue(stormy, 8);
  exec::TrialRunner runner(1);
  const ServeReport report = engine.drain(runner);

  EXPECT_FALSE(report.users[calm].needs_retraining);
  EXPECT_TRUE(report.users[stormy].needs_retraining);
  EXPECT_EQ(report.flagged_users, 1u);
  EXPECT_LT(report.users[calm].prompt_ewma, 3.0);
  EXPECT_GE(report.users[stormy].prompt_ewma, 3.0);
}

TEST_F(EngineFixture, DriftFlagNeedsWarmupAndSticks) {
  planning::RoutineLearner donor = trained();
  PolicyStore store(donor);
  ServeEngineParams params;
  params.pool.slots = 1;
  params.drift.threshold = 0.0;  // every session is "over threshold"...
  ServeEngine engine(library, library.tea_making(), store, params);
  const UserId u = engine.add_user(
      "U", patient::PatientProfile::with_severity("U", 0.3));

  exec::TrialRunner runner(1);
  engine.enqueue(u, 2);
  ServeReport report = engine.drain(runner);
  // ...but 2 sessions have not cleared the 3-session warm-up yet.
  EXPECT_FALSE(report.users[u].needs_retraining);

  engine.enqueue(u, 1);
  report = engine.drain(runner);
  EXPECT_TRUE(report.users[u].needs_retraining);
  EXPECT_EQ(engine.user_stats(u).sessions, 3u);
}

TEST_F(EngineFixture, EngineValidatesItsInputs) {
  planning::RoutineLearner donor = trained();
  PolicyStore store(donor);
  ServeEngine engine(library, library.tea_making(), store, {});
  EXPECT_THROW(engine.enqueue(0, 1), std::out_of_range);
  const UserId u = engine.add_user(
      "U", patient::PatientProfile::with_severity("U", 0.1));
  engine.enqueue(u, 0);  // zero sessions: a no-op, not an error
  EXPECT_EQ(engine.queued(), 0u);
  EXPECT_THROW(engine.user_stats(u + 1), std::out_of_range);
}

}  // namespace
}  // namespace coreda::serve
