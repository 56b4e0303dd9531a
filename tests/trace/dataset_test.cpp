#include "trace/dataset.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "adl/library.hpp"

namespace coreda::trace {
namespace {

namespace T = adl::tools;

struct DatasetFixture : ::testing::Test {
  adl::AdlLibrary library;

  DatasetBuilder make(double severity = 0.0, std::uint64_t seed = 9) {
    return DatasetBuilder(
        library, patient::PatientProfile::with_severity("T", severity),
        seed);
  }
};

TEST_F(DatasetFixture, CleanSetHasRequestedSize) {
  DatasetBuilder builder = make();
  const auto set = builder.clean_training_set(library.tea_making(), 120);
  EXPECT_EQ(set.size(), 120u);
  for (const auto& ep : set) {
    EXPECT_EQ(ep.size(), 4u);
    EXPECT_EQ(ep.front(), T::kTeaBox);
    EXPECT_EQ(ep.back(), T::kTeaCup);
  }
}

TEST_F(DatasetFixture, SensedSetOccasionallyMissesWeakSteps) {
  DatasetBuilder builder = make();
  const auto set = builder.sensed_training_set(library.tea_making(), 120);
  EXPECT_EQ(set.size(), 120u);
  std::size_t complete = 0;
  for (const auto& ep : set) {
    EXPECT_LE(ep.size(), 5u);
    if (ep.size() == 4) ++complete;
  }
  // The pot extraction (~80 %) dominates the incompleteness: roughly 70-85 %
  // of episodes survive fully.
  EXPECT_GT(complete, 60u);
  EXPECT_LT(complete, 115u);
}

TEST_F(DatasetFixture, TimedSetMatchesRoutineShape) {
  DatasetBuilder builder = make();
  const auto set = builder.timed_set(library.tooth_brushing(), 30);
  EXPECT_EQ(set.size(), 30u);
  for (const auto& ep : set) {
    ASSERT_EQ(ep.size(), 4u);
    EXPECT_EQ(ep[0].tool, T::kPasteTube);
    EXPECT_EQ(ep[3].tool, T::kTowel);
  }
}

TEST_F(DatasetFixture, DeterministicPerSeed) {
  DatasetBuilder a = make(0.0, 33);
  DatasetBuilder b = make(0.0, 33);
  EXPECT_EQ(a.sensed_training_set(library.tea_making(), 20),
            b.sensed_training_set(library.tea_making(), 20));
}

TEST_F(DatasetFixture, DifferentSeedsDiffer) {
  DatasetBuilder a = make(0.0, 1);
  DatasetBuilder b = make(0.0, 2);
  EXPECT_NE(a.sensed_training_set(library.tea_making(), 30),
            b.sensed_training_set(library.tea_making(), 30));
}

TEST_F(DatasetFixture, ParallelSensedSetIsIdenticalAtAnyJobCount) {
  DatasetBuilder a = make(0.0, 33);
  DatasetBuilder b = make(0.0, 33);
  exec::TrialRunner serial(1);
  exec::TrialRunner parallel(8);
  EXPECT_EQ(a.sensed_training_set_parallel(library.tea_making(), 24, serial),
            b.sensed_training_set_parallel(library.tea_making(), 24,
                                           parallel));
}

TEST_F(DatasetFixture, ParallelSensedSetLooksLikeTheSerialOne) {
  // Different streams, same distribution: sequences still mostly follow the
  // routine and are non-empty.
  DatasetBuilder builder = make(0.0, 5);
  exec::TrialRunner runner(2);
  const auto set =
      builder.sensed_training_set_parallel(library.tea_making(), 20, runner);
  ASSERT_EQ(set.size(), 20u);
  std::size_t nonempty = 0;
  for (const auto& ep : set) nonempty += !ep.empty();
  EXPECT_GE(nonempty, 18u);
}

TEST_F(DatasetFixture, MultiRoutineAdlSamplesBothRoutines) {
  DatasetBuilder builder = make();
  const auto set = builder.clean_training_set(library.dressing(), 40);
  bool shirt_first = false;
  bool trousers_first = false;
  for (const auto& ep : set) {
    if (ep.front() == T::kShirt) shirt_first = true;
    if (ep.front() == T::kTrousers) trousers_first = true;
  }
  EXPECT_TRUE(shirt_first);
  EXPECT_TRUE(trousers_first);
}

// Where a builder's stream stands: its next two timed episodes, flattened.
std::vector<std::int64_t> stream_position(DatasetBuilder& builder,
                                          const adl::Adl& adl) {
  std::vector<std::int64_t> out;
  for (const auto& episode : builder.timed_set(adl, 2)) {
    for (const patient::TimedStep& step : episode) {
      out.push_back(step.tool);
      out.push_back(step.think.total_micros());
      out.push_back(step.manipulation.total_micros());
    }
  }
  return out;
}

// The runner form replays the chain's scripts as one batch: at 1, 2 and 4
// jobs it returns the runner-less set, for every ADL, and a second call on
// the same builder continues the builder's stream exactly as the chain does.
struct SensedSetJobs : ::testing::TestWithParam<std::string> {};

TEST_P(SensedSetJobs, RunnerFormMatchesTheChainAtAnyJobCount) {
  adl::AdlLibrary library;
  const adl::Adl& adl = library.by_name(GetParam());
  const auto profile = patient::PatientProfile::with_severity("T", 0.2);
  DatasetBuilder chain(library, profile, 41);
  const auto first = chain.sensed_training_set(adl, 12);
  const auto second = chain.sensed_training_set(adl, 12);
  const auto after = stream_position(chain, adl);
  for (const std::size_t jobs : {1u, 2u, 4u}) {
    exec::TrialRunner runner(jobs);
    DatasetBuilder batched(library, profile, 41);
    EXPECT_EQ(batched.sensed_training_set(adl, 12, runner), first) << jobs;
    EXPECT_EQ(batched.sensed_training_set(adl, 12, runner), second) << jobs;
    EXPECT_EQ(stream_position(batched, adl), after) << jobs;
  }
}

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

// The runner-less chain pinned to digests recorded from the stack-by-stack
// replay that preceded the batch: two 20-episode sensed sets of a severity
// 0.4 resident, then six successive SensingPipeline::run() calls on the
// builder's next timed episodes (counts, radio stats, extracted steps).
TEST_P(SensedSetJobs, ChainMatchesTheRecordedDigests) {
  const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
      recorded = {
          {"Tooth-brushing", {0x06a13e883e2b674aULL, 0x772c23869bf9f6e1ULL}},
          {"Tea-making", {0x2b28830214b85ae0ULL, 0xd811a63f6da22fb9ULL}},
          {"Hand-washing", {0x7ed9e99d88af700fULL, 0x24d8638951ec79f0ULL}},
          {"Dressing", {0xe416d2d11158c606ULL, 0x967e78211264a29bULL}},
      };
  adl::AdlLibrary library;
  const adl::Adl& adl = library.by_name(GetParam());
  DatasetBuilder builder(
      library, patient::PatientProfile::with_severity("T", 0.4), 41);
  std::uint64_t sets = 0;
  for (int call = 0; call < 2; ++call) {
    for (const auto& episode : builder.sensed_training_set(adl, 20)) {
      sets = fold(sets, episode.size());
      for (const adl::StepId step : episode) sets = fold(sets, step);
    }
  }
  SensingPipeline pipeline(library.tools(), adl.tools(), 31);
  std::uint64_t runs = 0;
  for (const auto& script : builder.timed_set(adl, 6)) {
    const SensedResult r = pipeline.run(script);
    for (const std::uint64_t v :
         {std::uint64_t{r.missed}, std::uint64_t{r.spurious}, r.radio.sent,
          r.radio.delivered, r.radio.lost_noise, r.radio.lost_collision}) {
      runs = fold(runs, v);
    }
    for (const adl::StepId step : r.extracted) runs = fold(runs, step);
  }
  EXPECT_EQ(sets, recorded.at(GetParam()).first) << std::hex << sets;
  EXPECT_EQ(runs, recorded.at(GetParam()).second) << std::hex << runs;
}

INSTANTIATE_TEST_SUITE_P(AllAdls, SensedSetJobs,
                         ::testing::Values("Tooth-brushing", "Tea-making",
                                           "Hand-washing", "Dressing"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace coreda::trace
