// A trained learner survives a trip through its durable form — a one-table
// serve::SegmentStore record, whose deltas planning/serialize encodes —
// with every Q value, every prediction and its ability to keep learning
// intact; a store of another ADL, garbage and a record cut short are
// rejected with the learner untouched.

#include "planning/serialize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "adl/library.hpp"
#include "planning/learner.hpp"
#include "serve/segment_store.hpp"
#include "util/wire.hpp"

namespace coreda::planning {
namespace {

namespace T = adl::tools;
namespace fs = std::filesystem;

struct SerializeFixture : ::testing::Test {
  adl::AdlLibrary library;
  /// One store per test: ctest runs the tests concurrently.
  std::string dir =
      ::testing::TempDir() + "/coreda_serialize_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();

  void SetUp() override { fs::remove_all(dir); }
  void TearDown() override { fs::remove_all(dir); }

  RoutineLearner trained() {
    RoutineLearner learner(library.tea_making(), util::Rng(5));
    const std::vector<adl::StepId> steps{T::kTeaBox, T::kElectricPot,
                                         T::kKettle, T::kTeaCup};
    for (int i = 0; i < 80; ++i) learner.train_episode(steps);
    return learner;
  }

  serve::SegmentStore open(const RoutineLearner& learner) const {
    serve::SegmentStoreParams params;
    params.dir = dir;
    return serve::SegmentStore(
        learner.state_codec().symbols(), learner.action_codec().tools(),
        learner.q().num_states(), learner.q().num_actions(), params);
  }

  /// Stores the learner's table as user 0, version 1.
  void save(const RoutineLearner& learner) const {
    serve::SegmentStore store = open(learner);
    store.reserve_users(1);
    store.append(0, learner.q(), 1);
  }

  /// Loads user 0 into `learner` the way a checkout does: decode into a
  /// scratch table under the learner's vocabularies, then import. Throws
  /// std::runtime_error when the store is refused or holds no valid record.
  void restore(RoutineLearner& learner) const {
    serve::SegmentStore store = open(learner);
    rl::QTable staged(learner.q().num_states(), learner.q().num_actions());
    if (!store.load(0, staged)) {
      throw std::runtime_error("no policy stored for user 0");
    }
    learner.import_q(staged);
  }
};

TEST_F(SerializeFixture, RoundTripPreservesEveryQValue) {
  RoutineLearner source = trained();
  save(source);
  RoutineLearner restored(library.tea_making(), util::Rng(99));
  restore(restored);

  for (rl::StateId s = 0; s < source.q().num_states(); ++s) {
    for (rl::ActionId a = 0; a < source.q().num_actions(); ++a) {
      EXPECT_DOUBLE_EQ(restored.q().get(s, a), source.q().get(s, a));
    }
  }
  EXPECT_DOUBLE_EQ(restored.greedy_accuracy(), 1.0);
}

TEST_F(SerializeFixture, RestoredLearnerPredictsIdentically) {
  RoutineLearner source = trained();
  save(source);
  RoutineLearner restored(library.tea_making(), util::Rng(99));
  restore(restored);

  for (const PlannerState& state : source.predicting_states()) {
    const auto a = source.predict(state);
    const auto b = restored.predict(state);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->action, b->action);
  }
}

TEST_F(SerializeFixture, WrongAdlRejected) {
  save(trained());
  RoutineLearner other(library.tooth_brushing(), util::Rng(99));
  EXPECT_THROW(restore(other), std::runtime_error);
}

TEST_F(SerializeFixture, GarbageRejected) {
  fs::create_directories(dir);
  std::ofstream(dir + "/store.meta") << "not a policy at all\n";
  RoutineLearner learner(library.tea_making(), util::Rng(1));
  EXPECT_THROW(restore(learner), std::runtime_error);
}

TEST_F(SerializeFixture, TruncatedSnapshotLeavesLearnerUnchanged) {
  RoutineLearner source = trained();
  save(source);
  {
    // Cut the record's tail (the last third of its Q block and the
    // checksum), as a write that never finished leaves it.
    const std::string seg = dir + "/seg-w0-000000.seg";
    std::fstream f(seg, std::ios::in | std::ios::out | std::ios::binary);
    unsigned char len_bytes[8];
    f.seekg(40 + 8);
    f.read(reinterpret_cast<char*>(len_bytes), 8);
    const std::uint64_t len = util::wire::load_u64(len_bytes);
    const std::string zeros(len / 3, '\0');
    f.seekp(static_cast<std::streamoff>(40 + len - zeros.size()));
    f.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }

  RoutineLearner victim(library.tea_making(), util::Rng(2));
  const double before = victim.q().get(0, 0);
  EXPECT_THROW(restore(victim), std::runtime_error);
  EXPECT_DOUBLE_EQ(victim.q().get(0, 0), before);
}

TEST_F(SerializeFixture, RestoredLearnerCanKeepTraining) {
  RoutineLearner source = trained();
  save(source);
  RoutineLearner restored(library.tea_making(), util::Rng(99));
  restore(restored);

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

TEST_F(SerializeFixture, ChangedRowsAreTheBitwiseDifferentOnes) {
  rl::QTable base(4, 3, 1.0);
  rl::QTable q = base;
  q.set(1, 2, -0.0);  // bitwise different from +1.0
  q.set(3, 0, 7.5);
  ASSERT_EQ(count_changed_rows(base, q), 2u);
  std::vector<unsigned char> out(2 * (1 + 3) * 8);
  EXPECT_EQ(encode_changed_rows(base, q, out.data()),
            out.data() + out.size());
  EXPECT_EQ(util::wire::load_u64(out.data()), 1u);
  EXPECT_TRUE(std::signbit(util::wire::load_f64(out.data() + 8 + 16)));
  EXPECT_EQ(util::wire::load_u64(out.data() + 32), 3u);
  EXPECT_EQ(util::wire::load_f64(out.data() + 40), 7.5);
  EXPECT_THROW(count_changed_rows(base, rl::QTable(4, 2)),
               std::invalid_argument);
}

}  // namespace
}  // namespace coreda::planning
