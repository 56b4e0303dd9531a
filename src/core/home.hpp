#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "adl/library.hpp"
#include "core/system.hpp"
#include "patient/actor.hpp"
#include "pavenet/node.hpp"
#include "recognition/recognizer.hpp"
#include "recognition/tracker.hpp"
#include "sensors/world.hpp"
#include "sim/scheduler.hpp"

namespace coreda::core {

/// One part of a scripted multi-ADL session: a segment of an ADL
/// (`adl` non-empty) or a caregiver interruption (`adl` empty, `pause` >= 0).
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
  /// recoveries, elapsed, observed steps). `actual_adl` and
  /// `steps_completed` describe the last segment's ADL.
  SessionResult session;
  std::size_t segments = 0;
  std::size_t segments_completed = 0;
  /// Episodes the tracker closed on an idle gap during the run (a long
  /// caregiver interruption closes one; a recognition-gated switch or a
  /// short interruption does not).
  std::size_t idle_episodes = 0;
  /// Every segment reached its step target before the deadline.
  bool completed = false;
};

/// The full CoReDA loop of Figure 2 — sensing (PAVENET nodes -> radio ->
/// base station), planning (TD(λ) Q-Learning) and reminding (display +
/// LEDs) on one discrete-event scheduler, closed by a simulated patient —
/// in one of two kinds, picked by the constructor:
///
///   * single-ADL, the paper's prototype: nodes on one ADL's tools, one
///     planner, recognition off; the ADL is known out-of-band and active
///     from session start;
///   * whole-home: a node on every tool of every ADL, one shared radio; the
///     server first *recognizes* which ADL the resident started
///     (recognition::ActivityTracker; Philipose et al. [2]) and only then
///     routes the StepID stream to that ADL's planner and reminding loop.
///
/// One construction serves any number of back-to-back sessions: each resets
/// component state (station episode table, reminder log, trigger, actor)
/// instead of rebuilding the stack, and run_session_inplace reuses a
/// caller-owned SessionResult, so a warm single-ADL deployment serves a
/// session without allocating.
class HomeDeployment {
 public:
  using Setup = std::function<void(patient::PatientActor&)>;

  /// Whole-home: deploys nodes on every tool of every ADL in `library`
  /// (which must outlive the deployment). Throws std::invalid_argument when
  /// `config.learn_from_sessions` is set: a whole home has no single
  /// planner to feed finished sessions back into.
  explicit HomeDeployment(const adl::AdlLibrary& library,
                          SystemConfig config = SystemConfig());

  /// Single-ADL: deploys nodes on the tools of `adl` only. `library` and
  /// `adl` must outlive the deployment.
  HomeDeployment(const adl::AdlLibrary& library, const adl::Adl& adl,
                 SystemConfig config = SystemConfig());

  // The components' callbacks hold this deployment's address.
  HomeDeployment(const HomeDeployment&) = delete;
  HomeDeployment& operator=(const HomeDeployment&) = delete;

  /// Whole-home: trains the recognizer and every ADL's planner from sensed
  /// recordings (`episodes_per_adl` processes of each ADL).
  void pretrain(std::size_t episodes_per_adl, std::uint64_t dataset_seed);

  /// Single-ADL: offline training from recorded StepId sequences (the
  /// 120-sample training phase of §3.2).
  void pretrain(std::span<const std::vector<adl::StepId>> episodes);

  /// Single-ADL: runs one closed-loop session with a patient of the given
  /// profile: the patient attempts the ADL's primary routine; CoReDA
  /// watches, prompts on the two trigger situations, and praises correct
  /// steps. `setup`, when set, is called on the freshly reset actor before
  /// the session starts — the hook the deterministic scenario player uses
  /// to queue forced decisions (Figure 1 replay).
  SessionResult run_session(const patient::PatientProfile& profile,
                            sim::Duration max_duration,
                            const Setup& setup = {});

  /// Single-ADL: the allocation-free serving entry point. Like
  /// run_session(), but the outcome lands in the caller-owned `result`,
  /// whose buffers (notably observed_steps) are reused across calls. At
  /// steady state a session runs with zero heap allocations.
  void run_session_inplace(const patient::PatientProfile& profile,
                           sim::Duration max_duration, const Setup& setup,
                           SessionResult& result);

  /// Whole-home: runs one closed-loop session: the resident attempts
  /// `adl_name`; the system recognizes the activity from the usage stream,
  /// then assists.
  ///
  /// `schedule_hint` (optional) names the ADL the care plan expects at this
  /// time of day (an Autominder-style temporal prior, Pollack et al. [3]).
  /// With a hint the system provisionally activates that ADL's planner at
  /// session start, so even a resident who freezes before touching any tool
  /// gets a first-step prompt; the recognizer's announcement overrides the
  /// hint if the usage stream says otherwise. Without a hint, assistance
  /// starts only after recognition — a resident who never starts is not
  /// prompted (the un-hinted system cannot know what they intended).
  SessionResult run_session(const std::string& adl_name,
                            const patient::PatientProfile& profile,
                            sim::Duration max_duration,
                            const std::string& schedule_hint = "");

  /// Whole-home: runs one continuous scripted session: the resident works
  /// through the script's ADL segments and interruptions without the
  /// session ever ending in between — the tracker's episode stays open
  /// across segment boundaries, the recognizer announces mid-episode
  /// switches (enable them via set_tracker_params()), and each ADL's
  /// planner context and step progress are saved when the resident walks
  /// away and restored when a later segment returns to that ADL. This is
  /// the serving shape of interleaved daily life (start the tea, brush
  /// teeth while the kettle heats, come back). Throws (std::out_of_range
  /// for an unknown ADL, std::invalid_argument for a negative pause)
  /// before the session starts.
  HomeScriptResult run_script(const SessionScript& script,
                              const patient::PatientProfile& profile,
                              sim::Duration max_duration);

  /// Whole-home: replaces the activity tracker's parameters (e.g. to
  /// enable recognition-gated switching). Must not be called mid-session;
  /// resets episode/switch counters.
  void set_tracker_params(const recognition::ActivityTracker::Params& params);

  /// Replaces one ADL's policy table (restore from a snapshot/bundle) or,
  /// single-ADL, the deployed ADL's — the serving-side half of a train-once
  /// / deploy-many split: train one learner offline, then stamp its table
  /// into every serving deployment. Throws std::out_of_range for ADLs the
  /// deployment does not serve, std::invalid_argument on a dimension
  /// mismatch.
  void import_policy(const std::string& adl_name, const rl::QTable& q);
  void import_policy(const rl::QTable& q);

  /// Whole-home: replaces the recognition model with a pretrained donor's —
  /// serving pools train recognition once and share it across slots
  /// instead of re-training per user. Closes any open tracker episode first.
  void adopt_recognizer(const recognition::AdlRecognizer& donor);

  /// Single-ADL: the deployed ADL. Entry points marked "Single-ADL" throw
  /// std::logic_error on a whole home, those marked "Whole-home" on a
  /// single-ADL deployment.
  const adl::Adl& adl() const;

  const recognition::AdlRecognizer& recognizer() const noexcept {
    return recognizer_;
  }
  /// The planner of `adl` (std::out_of_range for ADLs the deployment does
  /// not serve) or, single-ADL, of the deployed ADL.
  const planning::RoutineLearner& learner(const std::string& adl) const {
    return planner(adl);
  }
  const planning::RoutineLearner& learner() const {
    return planner(adl().name());
  }
  const reminding::RemindingSubsystem& reminder() const noexcept {
    return *reminder_;
  }
  const pavenet::RadioChannel& channel() const noexcept { return *channel_; }
  /// Mutable channel access for the fault-injection layer: the channel
  /// persists across reset-don't-rebuild sessions, so an armed burst chain
  /// keeps its state for the slot's whole lifetime.
  pavenet::RadioChannel& channel_mut() noexcept { return *channel_; }
  const pavenet::BaseStation& station() const noexcept { return *station_; }
  sim::Scheduler& scheduler() noexcept { return scheduler_; }
  /// The actor of the most recent session (constructed warm at startup;
  /// meaningful only after a session has run).
  const patient::PatientActor* last_actor() const noexcept {
    return actor_.get();
  }

  /// The node attached to `tool`; throws std::out_of_range when absent.
  const pavenet::PavenetNode& node(adl::ToolId tool) const;

 private:
  HomeDeployment(const adl::AdlLibrary& library, const adl::Adl* adl,
                 SystemConfig config);

  planning::RoutineLearner& planner(const std::string& adl) const;
  /// Whole-home entry points start here: throws std::logic_error on a
  /// single-ADL deployment, which has no tracker.
  recognition::ActivityTracker& tracker();
  /// Ends the session when it goes out of scope.
  struct SessionScope;
  /// The per-session reset every entry point shares; the session runs
  /// until the returned scope ends.
  SessionScope begin_session(const patient::PatientProfile& profile,
                             const Setup& setup, SessionResult& result);
  /// Once the resident has begun: a schedule hint provisionally activates
  /// its ADL, and the active planner (if any) arms for the first step.
  void start_assisting(const std::string& hint);
  /// Steps the scheduler until the resident finishes or has `target` steps
  /// done, the deadline passes, or no event is left.
  void run_until(sim::TimePoint deadline, std::size_t target);
  void serve(const adl::Adl& attempted, const patient::PatientProfile& profile,
             sim::Duration max_duration, const Setup& setup,
             const std::string& hint, SessionResult& result);

  void on_usage(adl::ToolId tool, sim::TimePoint at);
  void on_activity(const std::string& adl_name, sim::TimePoint at);
  void activate(const adl::Adl* adl);
  void on_trigger(reminding::Trigger trigger, adl::ToolId observed);
  void arm_for_next();

  const adl::AdlLibrary* library_;
  const adl::Adl* adl_;  ///< the deployed ADL; null for a whole home
  SystemConfig config_;
  util::Rng rng_;

  sim::Scheduler scheduler_;
  sensors::ManipulationWorld world_;
  std::unique_ptr<pavenet::RadioChannel> channel_;
  std::unique_ptr<pavenet::BaseStation> station_;
  std::unique_ptr<pavenet::NodeBank> nodes_;
  std::map<std::string, std::unique_ptr<planning::RoutineLearner>> learners_;
  recognition::AdlRecognizer recognizer_;
  std::unique_ptr<recognition::ActivityTracker> tracker_;  ///< whole home
  std::unique_ptr<reminding::RemindingSubsystem> reminder_;
  std::unique_ptr<reminding::TriggerMonitor> trigger_;
  std::unique_ptr<patient::PatientActor> actor_;

  // Per-session state.
  const adl::Adl* active_adl_ = nullptr;  ///< deployed or recognized
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
  /// The running session's outcome; null between sessions.
  SessionResult* result_ = nullptr;
  /// Reused by the by-value run_session overloads so their sessions also
  /// run against warm buffers (the return itself still copies).
  SessionResult scratch_result_;

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
