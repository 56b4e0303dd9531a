#include "planning/multi_routine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "adl/library.hpp"
#include "support/scalar_learner.hpp"
#include "trace/dataset.hpp"
#include "util/rng.hpp"

namespace coreda::planning {
namespace {

namespace T = adl::tools;

struct MultiRoutineFixture : ::testing::Test {
  adl::AdlLibrary library;

  std::vector<std::vector<adl::StepId>> dressing_episodes(int per_routine) {
    std::vector<std::vector<adl::StepId>> out;
    const std::vector<adl::StepId> shirt_first{T::kShirt, T::kTrousers,
                                               T::kSocks, T::kShoes};
    const std::vector<adl::StepId> trousers_first{T::kTrousers, T::kSocks,
                                                  T::kShirt, T::kShoes};
    for (int i = 0; i < per_routine; ++i) {
      out.push_back(shirt_first);
      out.push_back(trousers_first);
    }
    return out;
  }
};

TEST_F(MultiRoutineFixture, HistoryCodecRoundTrip) {
  HistoryCodec codec({11, 12, 13}, 3);
  EXPECT_EQ(codec.depth(), 3u);
  EXPECT_EQ(codec.num_states(), 64u);  // (3+idle)^3
  const std::vector<adl::StepId> h{11, 12, 13};
  const auto id = codec.encode(h);
  ASSERT_TRUE(id.has_value());
  EXPECT_LT(*id, codec.num_states());
}

TEST_F(MultiRoutineFixture, HistoryCodecPadsShortHistories) {
  HistoryCodec codec({11, 12}, 3);
  const std::vector<adl::StepId> short_h{11};
  const std::vector<adl::StepId> padded{0, 0, 11};
  EXPECT_EQ(codec.encode(short_h), codec.encode(padded));
}

TEST_F(MultiRoutineFixture, HistoryCodecUsesOnlyTrailingWindow) {
  HistoryCodec codec({11, 12, 13}, 2);
  const std::vector<adl::StepId> long_h{13, 11, 12};
  const std::vector<adl::StepId> window{11, 12};
  EXPECT_EQ(codec.encode(long_h), codec.encode(window));
}

TEST_F(MultiRoutineFixture, HistoryCodecRejectsUnknownSymbols) {
  HistoryCodec codec({11}, 2);
  const std::vector<adl::StepId> bad{99};
  EXPECT_FALSE(codec.encode(bad).has_value());
}

TEST_F(MultiRoutineFixture, HistoryCodecValidation) {
  EXPECT_THROW(HistoryCodec({11}, 0), std::invalid_argument);
  EXPECT_THROW(HistoryCodec({0}, 2), std::invalid_argument);
  EXPECT_THROW(HistoryCodec({11, 11}, 2), std::invalid_argument);
}

TEST_F(MultiRoutineFixture, Depth2MatchesPaperStateSpace) {
  MultiRoutineLearner learner(library.tea_making(), 2, util::Rng(1));
  // 4 tools + idle, squared.
  EXPECT_EQ(learner.codec().num_states(), 25u);
}

TEST_F(MultiRoutineFixture, Depth2AmbiguousOnDressing) {
  // The two dressing routines share <trousers, socks> but continue
  // differently; the paper's pair state cannot get both right.
  MultiRoutineLearner learner(library.dressing(), 2, util::Rng(2));
  for (const auto& ep : dressing_episodes(100)) learner.train_episode(ep);
  EXPECT_LT(learner.routine_accuracy(), 1.0);
  EXPECT_GE(learner.routine_accuracy(), 0.5);
}

TEST_F(MultiRoutineFixture, Depth3DisambiguatesDressing) {
  MultiRoutineLearner learner(library.dressing(), 3, util::Rng(3));
  for (const auto& ep : dressing_episodes(150)) learner.train_episode(ep);
  EXPECT_DOUBLE_EQ(learner.routine_accuracy(), 1.0);
  for (const adl::AdlRoutine& r : library.dressing().routines()) {
    EXPECT_DOUBLE_EQ(learner.routine_accuracy(r), 1.0) << r.name();
  }
}

TEST_F(MultiRoutineFixture, SingleRoutineAdlWorksAtAnyDepth) {
  for (std::size_t depth : {2u, 3u, 4u}) {
    MultiRoutineLearner learner(library.tea_making(), depth,
                                util::Rng(40 + depth));
    const std::vector<adl::StepId> tea{T::kTeaBox, T::kElectricPot,
                                       T::kKettle, T::kTeaCup};
    for (int i = 0; i < 120; ++i) learner.train_episode(tea);
    EXPECT_DOUBLE_EQ(learner.routine_accuracy(), 1.0) << "depth " << depth;
  }
}

TEST_F(MultiRoutineFixture, PredictUsesHistory) {
  MultiRoutineLearner learner(library.dressing(), 3, util::Rng(5));
  for (const auto& ep : dressing_episodes(150)) learner.train_episode(ep);
  // shirt, trousers, socks -> shoes (routine A)
  const std::vector<adl::StepId> ctx_a{T::kShirt, T::kTrousers, T::kSocks};
  // trousers, socks -> shirt (routine B)
  const std::vector<adl::StepId> ctx_b{T::kTrousers, T::kSocks};
  const auto pa = learner.predict(ctx_a);
  const auto pb = learner.predict(ctx_b);
  ASSERT_TRUE(pa && pb);
  EXPECT_EQ(pa->action.tool, T::kShoes);
  EXPECT_EQ(pb->action.tool, T::kShirt);
}

TEST_F(MultiRoutineFixture, ShortEpisodeIgnored) {
  MultiRoutineLearner learner(library.dressing(), 2, util::Rng(6));
  learner.train_episode(std::vector<adl::StepId>{T::kShirt});
  EXPECT_EQ(learner.episodes_trained(), 1u);
}

/// `steps` without the ones outside `adl`'s vocabulary (its tools and idle).
std::vector<adl::StepId> drop_foreign(const std::vector<adl::StepId>& steps,
                                      const adl::Adl& adl) {
  const std::vector<adl::ToolId> tools = adl.tools();
  std::vector<adl::StepId> out;
  for (const adl::StepId s : steps) {
    if (s == adl::kIdleStep ||
        std::find(tools.begin(), tools.end(), s) != tools.end()) {
      out.push_back(s);
    }
  }
  return out;
}

/// A sensed episode with a foreign tool inserted and steps repeated, now and
/// then cut short (mostly before the routine's last step).
std::vector<adl::StepId> noisy(const std::vector<adl::StepId>& sensed,
                               util::Rng& rng) {
  std::vector<adl::StepId> out;
  const std::size_t keep = rng.uniform() < 0.25 && !sensed.empty()
                               ? rng.pick_index(sensed.size())
                               : sensed.size();
  for (std::size_t i = 0; i < keep; ++i) {
    if (rng.uniform() < 0.15) out.push_back(T::kToothbrush);
    out.push_back(sensed[i]);
    if (rng.uniform() < 0.15) out.push_back(sensed[i]);
  }
  if (rng.uniform() < 0.2) out.push_back(T::kToothbrush);
  return out;
}

void expect_same(const MultiRoutineLearner& got,
                 const ScalarMultiRoutineLearner& want) {
  const rl::QTable& a = got.q();
  const rl::QTable& b = want.q();
  ASSERT_EQ(a.num_states(), b.num_states());
  ASSERT_EQ(a.num_actions(), b.num_actions());
  const std::size_t cells = a.num_states() * a.num_actions();
  for (std::size_t i = 0; i < cells; ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.data()[i]),
              std::bit_cast<std::uint64_t>(b.data()[i]))
        << "Q cell " << i;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.epsilon()),
            std::bit_cast<std::uint64_t>(want.epsilon()));
  EXPECT_EQ(got.episodes_trained(), want.episodes_trained());
}

// MultiRoutineLearner trains on a width-1 rl::LaneEngine; this pins it,
// after every episode, to its old scalar loop (ScalarMultiRoutineLearner in
// tests/support/scalar_learner.hpp) on dressing and tea-making at depths 1-4:
// A5's clean training set, then sensed episodes with a foreign tool and
// repeated steps inserted, some cut short, plus empty, one-step and
// foreign-only ones. The reference gets every episode with its foreign
// steps dropped, the port's vocabulary rule.
TEST_F(MultiRoutineFixture, TrainsBitForBitAsTheScalarLoop) {
  const auto profile = patient::PatientProfile::with_severity("User", 0.0);
  for (const adl::Adl* adl : {&library.dressing(), &library.tea_making()}) {
    trace::DatasetBuilder datasets(library, profile, 717);
    std::vector<std::vector<adl::StepId>> episodes =
        datasets.clean_training_set(*adl, 300);
    util::Rng env(919);
    for (const auto& sensed : datasets.sensed_training_set(*adl, 60)) {
      episodes.push_back(noisy(sensed, env));
    }
    const adl::StepId first = adl->tools().front();
    episodes.push_back({});
    episodes.push_back({first});
    episodes.push_back({T::kToothbrush, T::kToothbrush});
    episodes.push_back({T::kToothbrush, first, T::kToothbrush});
    episodes.push_back({first, first, first});

    for (std::size_t depth = 1; depth <= 4; ++depth) {
      SCOPED_TRACE(testing::Message() << adl->name() << " depth " << depth);
      MultiRoutineLearner got(*adl, depth, util::Rng(818 + depth));
      ScalarMultiRoutineLearner want(*adl, depth, util::Rng(818 + depth));
      for (std::size_t e = 0; e < episodes.size(); ++e) {
        SCOPED_TRACE(testing::Message() << "episode " << e);
        got.train_episode(episodes[e]);
        want.train_episode(drop_foreign(episodes[e], *adl));
        expect_same(got, want);
        if (HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace coreda::planning
