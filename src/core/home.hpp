#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "recognition/recognizer.hpp"
#include "recognition/tracker.hpp"

namespace coreda::core {

/// Outcome of one multi-ADL session.
struct HomeSessionResult {
  /// What the resident actually attempted.
  std::string actual_adl;
  /// What the tracker announced (empty if never recognized).
  std::string recognized_adl;
  bool recognized_correctly = false;
  /// Sensed steps consumed before the announcement.
  std::size_t steps_to_recognition = 0;
  bool completed = false;
  sim::Duration elapsed;
  std::size_t prompts_total = 0;
  std::size_t praises = 0;
  /// Wrong-tool prompts the resident subsequently corrected (the praise
  /// that closed an outstanding prompt followed a wrong-tool trigger).
  std::size_t wrong_tool_recoveries = 0;
  /// Recognition-gated mid-episode activity switches the deployment acted
  /// on (0 unless switching is enabled via set_tracker_params()).
  std::size_t segment_switches = 0;
};

/// One part of a scripted multi-ADL session: a segment of an ADL
/// (`adl` non-empty) or a caregiver interruption (`adl` empty, `pause` > 0).
struct ScriptPart {
  std::string adl;
  /// Steps to attempt in this segment; 0 = the rest of the routine.
  std::size_t steps = 0;
  /// Continue from this ADL's progress saved by an earlier segment.
  bool resume = false;
  /// Forced freeze decisions injected before the segment's first step.
  std::size_t freeze = 0;
  /// Forced wrong-tool grabs injected before the segment's first step.
  std::size_t wrong_tool = 0;
  /// Tool grabbed by forced wrong-tool decisions (kNoTool = random).
  adl::ToolId wrong_tool_id = adl::kNoTool;
  /// Interruption length (only read when `adl` is empty).
  sim::Duration pause;
};

/// A scripted multi-ADL session: the resident interleaves ADL segments and
/// caregiver interruptions inside ONE continuous session.
struct SessionScript {
  std::vector<ScriptPart> parts;
  /// Schedule hint applied before the first segment (as in run_session).
  std::string hint;
};

/// Outcome of one scripted session.
struct HomeScriptResult {
  /// Counters aggregated across all segments (prompts, praises, switches,
  /// recoveries, elapsed). `actual_adl` holds the last segment's ADL.
  HomeSessionResult session;
  std::size_t segments = 0;
  std::size_t segments_completed = 0;
  /// Episodes the tracker closed on an idle gap during the run (a long
  /// caregiver interruption closes one; a recognition-gated switch or a
  /// short interruption does not).
  std::size_t idle_episodes = 0;
  /// Every segment reached its step target before the deadline.
  bool completed = false;
};

/// A whole-home CoReDA deployment: every tool of every ADL carries a node
/// on one shared radio; the server first *recognizes* which ADL the
/// resident started (recognition::ActivityTracker) and only then routes
/// the StepID stream to that ADL's planner and reminding loop.
///
/// This closes the gap the single-ADL prototype leaves open: the paper's
/// CoReDA assumes the active ADL is known out-of-band. Recognition is the
/// capability its related work cites from Philipose et al. [2].
class HomeDeployment {
 public:
  /// Deploys nodes on every tool of every ADL in `library` (which must
  /// outlive the deployment).
  HomeDeployment(const adl::AdlLibrary& library,
                 SystemConfig config = SystemConfig());

  /// Trains the recognizer and every ADL's planner from sensed recordings
  /// (`episodes_per_adl` processes of each ADL).
  void pretrain(std::size_t episodes_per_adl, std::uint64_t dataset_seed);

  /// Runs one closed-loop session: the resident attempts `adl_name`; the
  /// system recognizes the activity from the usage stream, then assists.
  ///
  /// `schedule_hint` (optional) names the ADL the care plan expects at this
  /// time of day (an Autominder-style temporal prior, Pollack et al. [3]).
  /// With a hint the system provisionally activates that ADL's planner at
  /// session start, so even a resident who freezes before touching any tool
  /// gets a first-step prompt; the recognizer's announcement overrides the
  /// hint if the usage stream says otherwise. Without a hint, assistance
  /// starts only after recognition — a resident who never starts is not
  /// prompted (the un-hinted system cannot know what they intended).
  HomeSessionResult run_session(const std::string& adl_name,
                                const patient::PatientProfile& profile,
                                sim::Duration max_duration,
                                const std::string& schedule_hint = "");

  /// Runs one continuous scripted session: the resident works through the
  /// script's ADL segments and interruptions without the session ever
  /// ending in between — the tracker's episode stays open across segment
  /// boundaries, the recognizer announces mid-episode switches (enable
  /// them via set_tracker_params()), and each ADL's planner context and
  /// step progress are saved when the resident walks away and restored
  /// when a later segment returns to that ADL. This is the serving shape
  /// of interleaved daily life (start the tea, brush teeth while the
  /// kettle heats, come back) that single-ADL run_session() cannot model.
  HomeScriptResult run_script(const SessionScript& script,
                              const patient::PatientProfile& profile,
                              sim::Duration max_duration);

  /// Replaces the activity tracker's parameters (e.g. to enable
  /// recognition-gated switching). Must not be called mid-session; resets
  /// episode/switch counters.
  void set_tracker_params(const recognition::ActivityTracker::Params& params);

  /// Replaces one ADL's policy table (restore from a snapshot/bundle).
  /// Throws std::out_of_range for unknown ADLs, std::invalid_argument on a
  /// dimension mismatch.
  void import_policy(const std::string& adl_name, const rl::QTable& q);

  /// Replaces the recognition model with a pretrained donor's — serving
  /// pools train recognition once and share it across slots instead of
  /// re-training per user. Closes any open tracker episode first.
  void adopt_recognizer(const recognition::AdlRecognizer& donor);

  const recognition::AdlRecognizer& recognizer() const noexcept {
    return recognizer_;
  }
  const planning::RoutineLearner& learner(const std::string& adl) const;
  const reminding::RemindingSubsystem& reminder() const noexcept {
    return *reminder_;
  }
  sim::Scheduler& scheduler() noexcept { return scheduler_; }

 private:
  void on_usage(adl::ToolId tool, sim::TimePoint at);
  void on_activity(const std::string& adl_name, sim::TimePoint at);
  void activate(const std::string& adl_name);
  void on_trigger(reminding::Trigger trigger, adl::ToolId observed);
  void arm_for_next();

  const adl::AdlLibrary* library_;
  SystemConfig config_;
  util::Rng rng_;

  sim::Scheduler scheduler_;
  sensors::ManipulationWorld world_;
  std::unique_ptr<pavenet::RadioChannel> channel_;
  std::unique_ptr<pavenet::BaseStation> station_;
  std::unique_ptr<pavenet::NodeBank> nodes_;
  std::map<std::string, std::unique_ptr<planning::RoutineLearner>> learners_;
  recognition::AdlRecognizer recognizer_;
  std::unique_ptr<recognition::ActivityTracker> tracker_;
  std::unique_ptr<reminding::RemindingSubsystem> reminder_;
  std::unique_ptr<reminding::TriggerMonitor> trigger_;
  std::unique_ptr<patient::PatientActor> actor_;

  // Per-session state.
  bool session_active_ = false;
  const adl::Adl* active_adl_ = nullptr;        ///< recognized activity
  planning::RoutineLearner* active_learner_ = nullptr;
  /// Non-empty while the active ADL came from the schedule hint and has
  /// not been confirmed or overridden by recognition.
  std::string provisional_hint_;
  adl::StepId prev_ = adl::kIdleStep;
  adl::StepId cur_ = adl::kIdleStep;
  bool prompt_outstanding_ = false;
  /// The outstanding prompt was fired by a wrong-tool trigger; the praise
  /// that clears it counts as a wrong-tool recovery.
  bool wrong_tool_prompted_ = false;
  HomeSessionResult* result_ = nullptr;

  /// Planner context of an ADL the resident switched away from, restored
  /// when a later segment returns to it (scripted sessions only; cleared
  /// per session).
  struct AdlContext {
    adl::StepId prev = adl::kIdleStep;
    adl::StepId cur = adl::kIdleStep;
  };
  std::map<std::string, AdlContext> contexts_;
  /// Steps completed per ADL across this script's segments (resume).
  std::map<std::string, std::size_t> progress_;
};

}  // namespace coreda::core
