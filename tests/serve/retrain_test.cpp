// RetrainScheduler: transcript-ring mechanics, the single-job retrain
// contract, bit-identity with the scalar reference learner, the
// engine-level detect -> retrain -> redeploy loop (flag set, policy
// refreshed, EWMA recovered, flag cleared), and byte-identical closed-loop
// outcomes at any --jobs.

#include "serve/retrain_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "adl/library.hpp"
#include "serve/engine.hpp"
#include "support/scalar_learner.hpp"

namespace coreda::serve {
namespace {

struct RetrainFixture : ::testing::Test {
  adl::AdlLibrary library;

  std::vector<adl::StepId> routine() {
    std::vector<adl::StepId> steps;
    for (const adl::AdlStep& s :
         library.tea_making().primary_routine().steps()) {
      steps.push_back(s.step_id());
    }
    return steps;
  }

  /// Yesterday's habit: first two steps swapped (the A10 drift scenario).
  std::vector<adl::StepId> stale_routine() {
    std::vector<adl::StepId> steps = routine();
    std::swap(steps[0], steps[1]);
    return steps;
  }

  planning::RoutineLearner trained(const std::vector<adl::StepId>& steps,
                                   std::uint64_t seed, int episodes) {
    planning::RoutineLearner learner(library.tea_making(), util::Rng(seed));
    for (int i = 0; i < episodes; ++i) learner.train_episode(steps);
    return learner;
  }

  /// Greedy-prompt accuracy of a table against an explicit routine (the
  /// bench_drift_adaptation metric).
  double accuracy_vs(const rl::QTable& q,
                     const std::vector<adl::StepId>& steps) {
    planning::RoutineLearner probe(library.tea_making(), util::Rng(1));
    probe.begin_retraining(q, util::Rng(1));
    std::size_t hits = 0;
    std::size_t total = 0;
    adl::StepId prev = adl::kIdleStep;
    for (std::size_t i = 0; i + 1 < steps.size(); ++i) {
      const auto prompt = probe.predict(prev, steps[i]);
      ++total;
      if (prompt && prompt->action.tool == steps[i + 1]) ++hits;
      prev = steps[i];
    }
    return static_cast<double>(hits) / static_cast<double>(total);
  }
};

TEST_F(RetrainFixture, TranscriptRingBoundsEvictsAndTruncates) {
  planning::RoutineLearner donor = trained(routine(), 5, 80);
  PolicyStore store(donor);
  RetrainScheduler scheduler(library.tea_making(), store,
                             planning::LearnerConfig{}, /*slots=*/2);
  scheduler.add_user();
  scheduler.add_user();
  ASSERT_EQ(scheduler.num_users(), 2u);
  EXPECT_EQ(scheduler.transcripts(0), 0u);
  EXPECT_FALSE(scheduler.has_enough_transcripts(0));

  const auto steps = [](std::initializer_list<adl::StepId> ids) {
    return std::vector<adl::StepId>(ids);
  };
  const auto transcript = [&](std::size_t i) {
    const std::span<const adl::StepId> t = scheduler.transcript(0, i);
    return std::vector<adl::StepId>(t.begin(), t.end());
  };
  // A session 44 steps past the ring's 256-step slots.
  std::vector<adl::StepId> long_session(300);
  for (std::size_t i = 0; i < long_session.size(); ++i) {
    long_session[i] = static_cast<adl::StepId>(1 + i % 7);
  }

  scheduler.record(0, steps({1, 2}));
  EXPECT_EQ(scheduler.transcripts(0), 1u);
  scheduler.record(0, long_session);  // truncated to 256 steps
  scheduler.record(0, steps({3}));
  EXPECT_FALSE(scheduler.has_enough_transcripts(0));  // 3 of 4
  scheduler.record(0, steps({4}));
  EXPECT_TRUE(scheduler.has_enough_transcripts(0));
  const std::vector<adl::StepId> kept = transcript(1);
  ASSERT_EQ(kept.size(), 256u);
  EXPECT_TRUE(std::equal(kept.begin(), kept.end(), long_session.begin()));

  for (adl::StepId id = 5; id <= 8; ++id) scheduler.record(0, steps({id}));
  EXPECT_EQ(scheduler.transcripts(0), 8u);  // full, nothing evicted yet
  EXPECT_EQ(transcript(0), steps({1, 2}));
  scheduler.record(0, steps({9}));   // wraps: evicts the oldest ({1, 2})
  scheduler.record(0, steps({10}));  // ...then the truncated session
  EXPECT_EQ(scheduler.transcripts(0), 8u);
  EXPECT_EQ(transcript(0), steps({3}));
  EXPECT_EQ(transcript(7), steps({10}));

  // Rings are per user: recording for user 0 never touches user 1.
  EXPECT_EQ(scheduler.transcripts(1), 0u);

  EXPECT_THROW((void)scheduler.transcript(0, 8), std::out_of_range);
  EXPECT_THROW(scheduler.record(2, steps({1})), std::out_of_range);
  EXPECT_THROW(scheduler.retrain_user(2), std::out_of_range);
  EXPECT_THROW((void)RetrainScheduler(library.tea_making(), store,
                                      planning::LearnerConfig{}, 0),
               std::invalid_argument);
}

TEST_F(RetrainFixture, RetrainUserRealignsAStaleTableToTheRecordedRoutine) {
  planning::RoutineLearner donor = trained(routine(), 5, 80);
  planning::RoutineLearner stale = trained(stale_routine(), 6, 120);
  PolicyStore store(donor);
  store.add_user(stale.q());

  RetrainScheduler scheduler(library.tea_making(), store,
                             planning::LearnerConfig{}, /*slots=*/1);
  scheduler.add_user();
  for (std::size_t i = 0; i < kTranscriptRingCapacity; ++i) {
    scheduler.record(0, routine());
  }

  const double before = accuracy_vs(store.q(0), routine());
  const std::size_t episodes = scheduler.retrain_user(0);
  EXPECT_EQ(episodes, kTranscriptRingCapacity * kRetrainReplayPasses);
  EXPECT_EQ(store.version(0), 2u);  // the refreshed table was staged

  // The stale table prompted yesterday's order; the retrained one prompts
  // the routine the transcripts actually contain.
  const double after = accuracy_vs(store.q(0), routine());
  EXPECT_LT(before, 1.0);
  EXPECT_EQ(after, 1.0);
}

// The scheduler's output against the scalar reference learner: every
// staged table is bitwise the table of a reference that ran
// begin_retraining on the same start table with the user's retrain stream
// and replayed the same ring kRetrainReplayPasses times. Two users on
// different slots, rings of different depths (one wrapped), transcripts
// with foreign, truncated, too-short and stale-order steps, retrained at
// once, one trial per slot, as a drain's retrain stage runs them.
TEST_F(RetrainFixture, RetrainMatchesTheScalarLearnerBitForBit) {
  planning::RoutineLearner donor = trained(routine(), 5, 80);
  planning::RoutineLearner stale = trained(stale_routine(), 6, 120);
  PolicyStore store(donor);
  store.add_user(stale.q());
  store.add_user(stale.q());

  // Two slots: user u retrains on slot u % 2's trainer.
  RetrainScheduler scheduler(library.tea_making(), store,
                             planning::LearnerConfig{}, /*slots=*/2);
  scheduler.add_user();
  scheduler.add_user();

  const std::vector<adl::StepId> full = routine();
  std::vector<adl::StepId> foreign = full;
  foreign.insert(foreign.begin() + 1, adl::tools::kToothbrush);
  const std::vector<adl::StepId> truncated(full.begin(), full.begin() + 2);
  const std::vector<adl::StepId> too_short = {full.front()};
  const std::vector<std::vector<adl::StepId>> mix = {
      full, foreign, stale_routine(), truncated, too_short};
  for (std::size_t i = 0; i < 11; ++i) scheduler.record(0, mix[i % 5]);
  for (std::size_t i = 0; i < 5; ++i) scheduler.record(1, mix[(i + 2) % 5]);
  ASSERT_EQ(scheduler.transcripts(0), kTranscriptRingCapacity);
  ASSERT_EQ(scheduler.transcripts(1), 5u);

  exec::TrialRunner runner(2);
  runner.run(2, /*base_seed=*/0, [&](exec::TrialContext& ctx) -> char {
    scheduler.retrain_user(static_cast<UserId>(ctx.index));
    return 0;
  });
  ASSERT_EQ(scheduler.counters().jobs, 2u);

  for (UserId u = 0; u < 2; ++u) {
    SCOPED_TRACE(testing::Message() << "user " << u);
    planning::ScalarLearner reference(library.tea_making(), util::Rng(0));
    reference.begin_retraining(
        stale.q(), util::Rng(exec::trial_seed(kRetrainSeed, u)));
    for (std::size_t pass = 0; pass < kRetrainReplayPasses; ++pass) {
      for (std::size_t i = 0; i < scheduler.transcripts(u); ++i) {
        reference.train_episode(scheduler.transcript(u, i));
      }
    }
    EXPECT_EQ(store.version(u), 2u);
    const rl::QTable& got = store.q(u);
    const rl::QTable& want = reference.q();
    ASSERT_EQ(got.num_states(), want.num_states());
    ASSERT_EQ(got.num_actions(), want.num_actions());
    std::size_t moved = 0;
    for (rl::StateId s = 0; s < want.num_states(); ++s) {
      for (rl::ActionId a = 0; a < want.num_actions(); ++a) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got.get(s, a)),
                  std::bit_cast<std::uint64_t>(want.get(s, a)))
            << "Q(" << s << "," << a << ")";
        moved += got.get(s, a) != stale.q().get(s, a);
      }
    }
    EXPECT_GT(moved, 0u);  // the retrain changed the table
  }
}

/// The bench_retrain_recovery scenario in miniature: 8 users on 2 slots,
/// two of them (ids 0 and 5 — different slots/lanes) starting from a table
/// converged on yesterday's routine.
struct ClosedLoopOutcome {
  std::vector<bool> flagged;
  std::vector<std::uint64_t> retrains;
  std::vector<std::uint64_t> versions;
  std::string q_hexdump;  ///< every user's table, hexfloat — bit-exact
  std::uint64_t checksum = 0;
  std::uint64_t jobs = 0;
};

constexpr std::size_t kUsers = 8;
constexpr UserId kDrifted[] = {0, 5};

ClosedLoopOutcome run_closed_loop(RetrainFixture& fix, std::size_t jobs,
                                  std::size_t rounds) {
  planning::RoutineLearner donor = fix.trained(fix.routine(), 5, 80);
  planning::RoutineLearner stale =
      fix.trained(fix.stale_routine(), 6, 120);
  PolicyStore store(donor);
  ServeEngineParams params;
  params.pool.slots = 2;
  params.pool.seed = 4242;
  params.drift.threshold = 2.5;
  for (std::size_t u = 0; u < kUsers; ++u) {
    const bool drifted = u == kDrifted[0] || u == kDrifted[1];
    store.add_user(drifted ? stale.q() : donor.q());
  }
  ServeEngine engine(fix.library, fix.library.tea_making(), store, params);
  for (std::size_t u = 0; u < kUsers; ++u) {
    util::Rng rng(exec::trial_seed(9001, u));
    engine.add_user(patient::PatientProfile::with_severity(
        "U", 0.1 + 0.4 * rng.uniform()));
  }

  exec::TrialRunner runner(jobs);
  ServeReport report;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (UserId u = 0; u < kUsers; ++u) engine.enqueue(u, 2);
    report = engine.drain(runner);
  }

  ClosedLoopOutcome out;
  out.checksum = report.checksum;
  out.jobs = report.retrain.jobs;
  for (UserId u = 0; u < kUsers; ++u) {
    out.flagged.push_back(report.users[u].needs_retraining);
    out.retrains.push_back(report.users[u].retrains);
    out.versions.push_back(store.version(u));
    const rl::QTable& q = store.q(u);
    for (rl::StateId s = 0; s < q.num_states(); ++s) {
      for (rl::ActionId a = 0; a < q.num_actions(); ++a) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%a ", q.get(s, a));
        out.q_hexdump += buf;
      }
    }
    out.q_hexdump += "\n";
  }
  return out;
}

TEST_F(RetrainFixture, ClosedLoopFlagsRetrainsAndClearsTheFlag) {
  const ClosedLoopOutcome out = run_closed_loop(*this, 2, /*rounds=*/8);
  for (const UserId u : kDrifted) {
    EXPECT_GE(out.retrains[u], 1u) << "user " << u << " never retrained";
    EXPECT_FALSE(out.flagged[u])
        << "user " << u << " flag not cleared after retraining";
  }
  // Sessions are read-only: a version counts the tables staged, so each
  // user reads 1 initial + one per retrain (no fault plan, none aborted).
  for (UserId u = 0; u < kUsers; ++u) {
    EXPECT_EQ(out.versions[u], 1u + out.retrains[u]) << "user " << u;
  }
  EXPECT_GE(out.jobs, 2u);
}

TEST_F(RetrainFixture, ClosedLoopIsByteIdenticalAtAnyJobCount) {
  const ClosedLoopOutcome serial = run_closed_loop(*this, 1, 8);
  const ClosedLoopOutcome parallel = run_closed_loop(*this, 4, 8);
  EXPECT_EQ(serial.flagged, parallel.flagged);
  EXPECT_EQ(serial.retrains, parallel.retrains);
  EXPECT_EQ(serial.versions, parallel.versions);
  EXPECT_EQ(serial.checksum, parallel.checksum);
  EXPECT_EQ(serial.jobs, parallel.jobs);
  // Bit-exact tables, not just close ones: the hexfloat dump of every
  // user's final Q-table is the determinism witness.
  EXPECT_EQ(serial.q_hexdump, parallel.q_hexdump);
}

}  // namespace
}  // namespace coreda::serve
