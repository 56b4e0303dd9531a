// Episode segmentation across scripted multi-ADL sessions: recognition-
// gated switching keeps one episode alive while the resident interleaves
// ADLs; caregiver interruptions close the episode only when they exceed
// the idle gap; planner context and step progress survive a switch-away
// and are restored from the deployment's per-ADL maps when a later
// segment returns. Exact idle-gap boundary timing (strictly greater
// closes, equal does not) is pinned at tracker level in
// recognition/tracker_switch_test.cpp — here the boundaries are exercised
// through the whole closed loop, where think/manipulation time pads the
// gap.
#include "core/home.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace coreda::core {
namespace {

namespace T = adl::tools;

struct SegmentationFixture : ::testing::Test {
  adl::AdlLibrary library;

  std::unique_ptr<HomeDeployment> deploy(std::uint64_t seed = 99) {
    SystemConfig config;
    config.seed = seed;
    auto home = std::make_unique<HomeDeployment>(library, config);
    home->pretrain(120, seed + 1);
    // Window 2 / patience 1: a switch fires on the second consecutive
    // routine-ordered tool of the challenger ADL. Short segments (a
    // 2-step return to the tea) can then still announce their switch,
    // and a lone wrong grab stays harmless — its window always mixes
    // the intruder with a current-ADL tool.
    recognition::ActivityTracker::Params params;
    params.switch_window = 2;
    params.switch_threshold = 0.8;
    params.switch_patience = 1;
    home->set_tracker_params(params);
    return home;
  }

  patient::PatientProfile compliant(double severity) {
    patient::PatientProfile p =
        patient::PatientProfile::with_severity("Resident", severity);
    p.comply_minimal = 1.0;
    p.comply_specific = 1.0;
    return p;
  }

  static ScriptPart segment(std::string adl, std::size_t steps = 0,
                            bool resume = false) {
    ScriptPart part;
    part.adl = std::move(adl);
    part.steps = steps;
    part.resume = resume;
    return part;
  }

  static ScriptPart interrupt(double pause_s) {
    ScriptPart part;
    part.pause = sim::Duration::seconds(pause_s);
    return part;
  }
};

TEST_F(SegmentationFixture, InterleavedAdlsServeInOneEpisode) {
  const auto home = deploy();
  // Start the tea, brush teeth while the kettle heats, come back for the
  // tea — one continuous episode, two recognition-gated switches.
  SessionScript script;
  script.parts = {segment("Tea-making", 2), segment("Tooth-brushing"),
                  segment("Tea-making", 0, /*resume=*/true)};
  const HomeScriptResult result =
      home->run_script(script, compliant(0.0), sim::Duration::minutes(45.0));
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.segments, 3u);
  EXPECT_EQ(result.segments_completed, 3u);
  EXPECT_EQ(result.idle_episodes, 0u);
  EXPECT_GE(result.session.segment_switches, 2u);
}

TEST_F(SegmentationFixture, ResumeSkipsAlreadyCompletedSteps) {
  const auto home = deploy();
  SessionScript script;
  script.parts = {segment("Tea-making", 2),
                  segment("Tea-making", 0, /*resume=*/true)};
  const auto result =
      home->run_script(script, compliant(0.0), sim::Duration::minutes(45.0));
  EXPECT_TRUE(result.completed);
  // Without resume the second segment would restart the routine; with it,
  // both segments together perform the routine exactly once.
  EXPECT_EQ(result.segments_completed, 2u);
  EXPECT_EQ(result.idle_episodes, 0u);
}

TEST_F(SegmentationFixture, ShortInterruptionKeepsTheEpisodeOpen) {
  const auto home = deploy();
  SessionScript script;
  script.parts = {segment("Tea-making", 2), interrupt(30.0),
                  segment("Tea-making", 0, /*resume=*/true)};
  const auto result =
      home->run_script(script, compliant(0.0), sim::Duration::minutes(45.0));
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.idle_episodes, 0u);
}

TEST_F(SegmentationFixture, LongInterruptionClosesTheEpisode) {
  const auto home = deploy();
  // Well past the 3-minute idle gap: the tracker must close the tea
  // episode during the pause and re-recognize on resumption.
  SessionScript script;
  script.parts = {segment("Tea-making", 2), interrupt(300.0),
                  segment("Tea-making", 0, /*resume=*/true)};
  const auto result =
      home->run_script(script, compliant(0.0), sim::Duration::minutes(45.0));
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.idle_episodes, 1u);
  EXPECT_EQ(result.session.segment_switches, 0u);
}

TEST_F(SegmentationFixture, WrongToolBeforeSwitchingStillSwitchesCleanly) {
  const auto home = deploy();
  // The resident grabs the tea cup first (wrong: the routine starts at
  // the tea box). The hinted trigger prompts the correction, and the
  // intrusion must not stop the later recognition-gated switches: its
  // trailing window always mixes ADLs, so it never wins one.
  SessionScript script;
  ScriptPart tea = segment("Tea-making", 2);
  tea.wrong_tool = 1;
  tea.wrong_tool_id = T::kTeaCup;
  script.parts = {tea, segment("Tooth-brushing"),
                  segment("Tea-making", 0, /*resume=*/true)};
  script.hint = "Tea-making";
  const auto result =
      home->run_script(script, compliant(0.0), sim::Duration::minutes(45.0));
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.idle_episodes, 0u);
  EXPECT_GE(result.session.segment_switches, 2u);
  EXPECT_GE(result.session.wrong_tool_recoveries, 1u);
}

TEST_F(SegmentationFixture, WrongToolRecoveryIsCounted) {
  const auto home = deploy();
  // Hinted single-segment script: the forced wrong grab (tea cup instead
  // of tea box) fires the wrong-tool trigger, the prompt corrects it, and
  // the praise that closes the prompt counts one recovery.
  SessionScript script;
  ScriptPart tea = segment("Tea-making");
  tea.wrong_tool = 1;
  tea.wrong_tool_id = T::kTeaCup;
  script.parts = {tea};
  script.hint = "Tea-making";
  const auto result =
      home->run_script(script, compliant(0.0), sim::Duration::minutes(45.0));
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.session.prompts_total, 1u);
  EXPECT_GE(result.session.wrong_tool_recoveries, 1u);
}

TEST_F(SegmentationFixture, FrozenStartRescuedByHintAcrossSegments) {
  const auto home = deploy(123);
  patient::PatientProfile stuck = compliant(0.0);
  SessionScript script;
  ScriptPart tea = segment("Tea-making", 2);
  tea.freeze = 1;  // freezes before the very first step
  script.parts = {tea, segment("Tea-making", 0, /*resume=*/true)};
  script.hint = "Tea-making";
  const auto result =
      home->run_script(script, stuck, sim::Duration::minutes(45.0));
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.session.prompts_total, 1u);
}

TEST_F(SegmentationFixture, DeadlineStopsTheScript) {
  const auto home = deploy();
  SessionScript script;
  script.parts = {segment("Tea-making", 2), interrupt(600.0),
                  segment("Tea-making", 0, /*resume=*/true)};
  // The deadline lands inside the 10-minute interruption: the final
  // segment never starts.
  const auto result =
      home->run_script(script, compliant(0.0), sim::Duration::minutes(4.0));
  EXPECT_FALSE(result.completed);
  EXPECT_LE(result.segments, 2u);
}

TEST_F(SegmentationFixture, UnknownAdlAnywhereInTheScriptThrows) {
  const auto home = deploy();
  SessionScript script;
  script.parts = {segment("Tea-making", 2), segment("Cooking")};
  EXPECT_THROW(home->run_script(script, compliant(0.0),
                                sim::Duration::minutes(5.0)),
               std::out_of_range);
  script.parts = {segment("Tea-making")};
  script.hint = "Cooking";
  EXPECT_THROW(home->run_script(script, compliant(0.0),
                                sim::Duration::minutes(5.0)),
               std::out_of_range);
}

TEST_F(SegmentationFixture, NegativePauseIsRejectedBeforeTheSessionStarts) {
  const auto home = deploy();
  const auto twin = deploy();
  SessionScript bad;
  bad.parts = {segment("Tea-making", 2), interrupt(-5.0),
               segment("Tea-making", 0, /*resume=*/true)};
  const sim::TimePoint before = home->scheduler().now();
  EXPECT_THROW(home->run_script(bad, compliant(0.3),
                                sim::Duration::minutes(45.0)),
               std::invalid_argument);
  // Rejected up front: no segment ran, and the deployment serves on as if
  // the script had never been submitted.
  EXPECT_EQ(home->scheduler().now(), before);
  SessionScript good;
  good.parts = {segment("Tea-making"), interrupt(30.0),
                segment("Tooth-brushing")};
  for (int i = 0; i < 3; ++i) {
    const HomeScriptResult a =
        home->run_script(good, compliant(0.3), sim::Duration::minutes(45.0));
    const HomeScriptResult b =
        twin->run_script(good, compliant(0.3), sim::Duration::minutes(45.0));
    EXPECT_EQ(a.completed, b.completed) << i;
    EXPECT_EQ(a.segments_completed, b.segments_completed) << i;
    EXPECT_EQ(a.idle_episodes, b.idle_episodes) << i;
    EXPECT_EQ(a.session.elapsed, b.session.elapsed) << i;
    EXPECT_EQ(a.session.prompts_total, b.session.prompts_total) << i;
    EXPECT_EQ(a.session.praises, b.session.praises) << i;
    EXPECT_EQ(a.session.recognized_adl, b.session.recognized_adl) << i;
    EXPECT_EQ(a.session.steps_to_recognition, b.session.steps_to_recognition)
        << i;
  }
}

TEST_F(SegmentationFixture, ScriptWithoutAnAdlSegmentIsRejected) {
  // Nothing would begin in a pause-only script: the session would report
  // the previous session's steps and call zero segments a completion.
  const auto home = deploy();
  const auto twin = deploy();
  SessionScript tea;
  tea.parts = {segment("Tea-making")};
  for (const auto& h : {home.get(), twin.get()}) {
    ASSERT_TRUE(
        h->run_script(tea, compliant(0.0), sim::Duration::minutes(45.0))
            .completed);
  }
  SessionScript pause_only;
  pause_only.parts = {interrupt(30.0)};
  const sim::TimePoint before = home->scheduler().now();
  for (const SessionScript& bad : {pause_only, SessionScript{}}) {
    EXPECT_THROW(home->run_script(bad, compliant(0.3),
                                  sim::Duration::minutes(45.0)),
                 std::invalid_argument);
  }
  EXPECT_EQ(home->scheduler().now(), before);
  // The next session is the one the deployment would have served anyway.
  SessionScript next;
  next.parts = {segment("Tooth-brushing"), interrupt(30.0),
                segment("Tea-making", 2)};
  const HomeScriptResult a =
      home->run_script(next, compliant(0.3), sim::Duration::minutes(45.0));
  const HomeScriptResult b =
      twin->run_script(next, compliant(0.3), sim::Duration::minutes(45.0));
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.segments_completed, b.segments_completed);
  EXPECT_EQ(a.idle_episodes, b.idle_episodes);
  EXPECT_EQ(a.session.elapsed, b.session.elapsed);
  EXPECT_EQ(a.session.steps_completed, b.session.steps_completed);
  EXPECT_EQ(a.session.prompts_total, b.session.prompts_total);
  EXPECT_EQ(a.session.praises, b.session.praises);
}

}  // namespace
}  // namespace coreda::core
