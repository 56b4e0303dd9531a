// A trained learner survives a trip through the v2 table record — the
// per-ADL entry every policy bundle frames — with every Q value, every
// prediction and its ability to keep learning intact; foreign, garbage and
// truncated records are rejected with the learner untouched.

#include "planning/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "adl/library.hpp"

namespace coreda::planning {
namespace {

namespace T = adl::tools;

struct SerializeFixture : ::testing::Test {
  adl::AdlLibrary library;

  RoutineLearner trained() {
    RoutineLearner learner(library.tea_making(), util::Rng(5));
    const std::vector<adl::StepId> steps{T::kTeaBox, T::kElectricPot,
                                         T::kKettle, T::kTeaCup};
    for (int i = 0; i < 80; ++i) learner.train_episode(steps);
    return learner;
  }

  static std::string record_of(const RoutineLearner& learner) {
    std::ostringstream out(std::ios::binary);
    save_policy_v2(out, learner.state_codec().symbols(),
                   learner.action_codec().tools(), learner.q(), 1);
    return out.str();
  }

  /// Loads `bytes` into `learner` the way a bundle checkout does: decode
  /// into a scratch table under the learner's vocabularies, then import.
  static void restore(const std::string& bytes, RoutineLearner& learner) {
    rl::QTable staged(learner.q().num_states(), learner.q().num_actions());
    std::istringstream in(bytes, std::ios::binary);
    load_policy_v2(in, learner.state_codec().symbols(),
                   learner.action_codec().tools(), staged);
    learner.import_q(staged);
  }
};

TEST_F(SerializeFixture, RoundTripPreservesEveryQValue) {
  RoutineLearner source = trained();
  RoutineLearner restored(library.tea_making(), util::Rng(99));
  restore(record_of(source), restored);

  for (rl::StateId s = 0; s < source.q().num_states(); ++s) {
    for (rl::ActionId a = 0; a < source.q().num_actions(); ++a) {
      EXPECT_DOUBLE_EQ(restored.q().get(s, a), source.q().get(s, a));
    }
  }
  EXPECT_DOUBLE_EQ(restored.greedy_accuracy(), 1.0);
}

TEST_F(SerializeFixture, RestoredLearnerPredictsIdentically) {
  RoutineLearner source = trained();
  RoutineLearner restored(library.tea_making(), util::Rng(99));
  restore(record_of(source), restored);

  for (const PlannerState& state : source.predicting_states()) {
    const auto a = source.predict(state);
    const auto b = restored.predict(state);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->action, b->action);
  }
}

TEST_F(SerializeFixture, WrongAdlRejected) {
  RoutineLearner source = trained();
  RoutineLearner other(library.tooth_brushing(), util::Rng(99));
  EXPECT_THROW(restore(record_of(source), other), std::runtime_error);
}

TEST_F(SerializeFixture, GarbageRejected) {
  RoutineLearner learner(library.tea_making(), util::Rng(1));
  EXPECT_THROW(restore("not a policy at all\n", learner), std::runtime_error);
}

TEST_F(SerializeFixture, TruncatedSnapshotLeavesLearnerUnchanged) {
  RoutineLearner source = trained();
  std::string bytes = record_of(source);
  bytes.resize(bytes.size() * 2 / 3);  // chop the tail of the Q block

  RoutineLearner victim(library.tea_making(), util::Rng(2));
  const double before = victim.q().get(0, 0);
  EXPECT_THROW(restore(bytes, victim), std::runtime_error);
  EXPECT_DOUBLE_EQ(victim.q().get(0, 0), before);
}

TEST_F(SerializeFixture, RestoredLearnerCanKeepTraining) {
  RoutineLearner source = trained();
  RoutineLearner restored(library.tea_making(), util::Rng(99));
  restore(record_of(source), restored);

  const std::vector<adl::StepId> steps{T::kTeaBox, T::kElectricPot,
                                       T::kKettle, T::kTeaCup};
  for (int i = 0; i < 20; ++i) restored.train_episode(steps);
  EXPECT_DOUBLE_EQ(restored.greedy_accuracy(), 1.0);
}

TEST_F(SerializeFixture, ImportQRejectsWrongShape) {
  RoutineLearner learner(library.tea_making(), util::Rng(1));
  rl::QTable wrong(3, 3);
  EXPECT_THROW(learner.import_q(wrong), std::invalid_argument);
}

}  // namespace
}  // namespace coreda::planning
