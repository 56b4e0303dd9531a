#include "trace/sensing_pipeline.hpp"

#include <gtest/gtest.h>

#include "adl/library.hpp"
#include "exec/trial_runner.hpp"
#include "patient/generator.hpp"

namespace coreda::trace {
namespace {

namespace T = adl::tools;

struct PipelineFixture : ::testing::Test {
  adl::AdlLibrary library;

  std::vector<patient::TimedStep> tea_script() {
    std::vector<patient::TimedStep> script;
    for (adl::ToolId tool : library.tea_making().tools()) {
      const auto& t = library.tools().at(tool);
      script.push_back(patient::TimedStep{
          tool, sim::Duration::seconds(4.0), t.typical_usage_mean});
    }
    return script;
  }
};

TEST_F(PipelineFixture, ExtractsStrongToolReliably) {
  SensingPipeline pipeline(library.tools(), {T::kKettle}, 1);
  int hits = 0;
  for (int i = 0; i < 50; ++i) {
    if (pipeline.single_tool_trial(T::kKettle, sim::Duration::seconds(8.0))) {
      ++hits;
    }
  }
  EXPECT_GE(hits, 48);  // kettle: paper reports 100 %
}

TEST_F(PipelineFixture, WeakToolMissesSometimes) {
  SensingPipeline pipeline(library.tools(), {T::kElectricPot}, 2);
  int hits = 0;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    if (pipeline.single_tool_trial(T::kElectricPot,
                                   sim::Duration::seconds(2.5))) {
      ++hits;
    }
  }
  // Paper Table 3: 80 % for the pot. Allow a generous band.
  EXPECT_GT(hits, n * 60 / 100);
  EXPECT_LT(hits, n * 95 / 100);
}

TEST_F(PipelineFixture, FullEpisodeMostlyExtracted) {
  SensingPipeline pipeline(library.tools(), library.tea_making().tools(), 3);
  const SensedResult result = pipeline.run(tea_script());
  EXPECT_GE(result.extracted.size(), 3u);
  EXPECT_LE(result.extracted.size(), 4u);
  // Order of extracted steps must follow the script.
  std::size_t idx = 0;
  const std::vector<adl::StepId> routine{T::kTeaBox, T::kElectricPot,
                                         T::kKettle, T::kTeaCup};
  for (adl::StepId s : result.extracted) {
    while (idx < routine.size() && routine[idx] != s) ++idx;
    EXPECT_LT(idx, routine.size()) << "out-of-order extraction";
  }
}

TEST_F(PipelineFixture, MissedStepsCounted) {
  SensingPipeline pipeline(library.tools(), library.tea_making().tools(), 4);
  std::size_t total_missed = 0;
  for (int i = 0; i < 50; ++i) {
    total_missed += pipeline.run(tea_script()).missed;
  }
  // The pot misses ~20 % and the cup ~9 %, so some misses must appear.
  EXPECT_GT(total_missed, 0u);
  EXPECT_LT(total_missed, 50u);
}

TEST_F(PipelineFixture, RadioLossDegradesExtraction) {
  SensingPipeline::Params lossy;
  lossy.radio.loss_probability = 0.95;
  SensingPipeline good(library.tools(), {T::kKettle}, 5);
  SensingPipeline bad(library.tools(), {T::kKettle}, 5, lossy);
  int good_hits = 0;
  int bad_hits = 0;
  for (int i = 0; i < 40; ++i) {
    good_hits += good.single_tool_trial(T::kKettle,
                                        sim::Duration::seconds(8.0));
    bad_hits += bad.single_tool_trial(T::kKettle,
                                      sim::Duration::seconds(8.0));
  }
  EXPECT_GT(good_hits, bad_hits);
}

TEST_F(PipelineFixture, UninstrumentedToolNeverExtracted) {
  // Node on the kettle only; manipulating the tea box is invisible.
  SensingPipeline pipeline(library.tools(), {T::kKettle}, 6);
  const SensedResult result = pipeline.run(
      {patient::TimedStep{T::kTeaBox, sim::Duration::seconds(1.0),
                          sim::Duration::seconds(8.0)}});
  EXPECT_TRUE(result.extracted.empty());
  EXPECT_EQ(result.missed, 1u);
}

TEST_F(PipelineFixture, DeterministicPerSeed) {
  SensingPipeline a(library.tools(), library.tea_making().tools(), 7);
  SensingPipeline b(library.tools(), library.tea_making().tools(), 7);
  const auto script = tea_script();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.run(script).extracted, b.run(script).extracted);
  }
}

// The batch draws each run's streams in script order before any stack runs:
// at 1, 2 and 4 jobs it returns what successive run() calls return, and
// leaves the seeder where they leave it.
TEST_F(PipelineFixture, RunAllMatchesSuccessiveRunsAtAnyJobCount) {
  const adl::Adl& adl = library.tea_making();
  patient::BehaviorGenerator gen(
      adl, library.tools(), patient::PatientProfile::with_severity("T", 0.3),
      util::Rng(21));
  std::vector<std::vector<patient::TimedStep>> scripts;
  for (int i = 0; i < 9; ++i) scripts.push_back(gen.timed_episode());

  SensingPipeline chain(library.tools(), adl.tools(), 31);
  std::vector<SensedResult> expected;
  for (const auto& script : scripts) expected.push_back(chain.run(script));
  const SensedResult expected_next = chain.run(tea_script());

  for (const std::size_t jobs : {1u, 2u, 4u}) {
    SensingPipeline batch(library.tools(), adl.tools(), 31);
    exec::TrialRunner runner(jobs);
    const std::vector<SensedResult> got = batch.run_all(scripts, runner);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].extracted, expected[i].extracted) << jobs << ' ' << i;
      EXPECT_EQ(got[i].missed, expected[i].missed) << jobs << ' ' << i;
      EXPECT_EQ(got[i].spurious, expected[i].spurious) << jobs << ' ' << i;
      EXPECT_EQ(got[i].radio.sent, expected[i].radio.sent);
      EXPECT_EQ(got[i].radio.delivered, expected[i].radio.delivered);
      EXPECT_EQ(got[i].radio.lost_noise, expected[i].radio.lost_noise);
      EXPECT_EQ(got[i].radio.lost_collision,
                expected[i].radio.lost_collision);
    }
    const SensedResult next = batch.run(tea_script());
    EXPECT_EQ(next.extracted, expected_next.extracted) << jobs;
    EXPECT_EQ(next.radio.sent, expected_next.radio.sent) << jobs;
  }
}

TEST_F(PipelineFixture, RadioStatsPopulated) {
  SensingPipeline pipeline(library.tools(), library.tea_making().tools(), 8);
  const SensedResult result = pipeline.run(tea_script());
  EXPECT_GT(result.radio.sent, 0u);
  EXPECT_GT(result.radio.delivered, 0u);
}

}  // namespace
}  // namespace coreda::trace
