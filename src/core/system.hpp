#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "adl/types.hpp"
#include "pavenet/base_station.hpp"
#include "pavenet/node_config.hpp"
#include "planning/learner.hpp"
#include "reminding/reminder.hpp"
#include "reminding/trigger.hpp"
#include "sim/time.hpp"

namespace coreda::core {

/// Everything that parameterizes a CoReDA deployment.
struct SystemConfig {
  std::string user_name = "Tanaka";
  std::uint64_t seed = 42;
  pavenet::FirmwareConfig firmware{};
  pavenet::RadioChannel::Params radio{};
  pavenet::BaseStation::Params station{};
  planning::LearnerConfig learner{};
  reminding::TriggerMonitor::Params trigger{};
  reminding::RemindingSubsystem::Params reminding{};
  /// When true, every completed closed-loop session is fed back into the
  /// learner so the policy keeps tracking the user (the always-learning
  /// mode §3.2 mentions and rejects for worsening dementia; off by
  /// default, like the paper).
  bool learn_from_sessions = false;
  /// When a prompt goes unanswered and the trigger fires again, escalate
  /// the re-prompt to the specific level (long personalized message, more
  /// blinks). The converged policy prefers minimal prompts — the paper's
  /// "exercise their brains" principle — but a user who did not react to a
  /// minimal prompt needs the stronger one.
  bool escalate_reprompts = true;
};

/// Provisioning bound on recorded steps per session: run_session_inplace
/// pre-sizes SessionResult::observed_steps to this capacity so a warm
/// session records allocation-free, and the serving tier's per-user
/// transcript rings size their fixed slots to the same bound — a transcript
/// that fits a session result always fits its ring slot.
inline constexpr std::size_t kMaxSessionSteps = 256;

/// Virtual-time cap of a served session: the serving tier's ServeEngine and
/// FleetEngine end every session they drain at this bound.
inline constexpr sim::Duration kServedSessionCap =
    sim::Duration::minutes(15.0);

/// Outcome of one closed-loop session (one attempt at one ADL), from either
/// kind of HomeDeployment. The recognition fields stay empty/zero on a
/// single-ADL deployment, which has recognition off.
struct SessionResult {
  /// What the resident actually attempted.
  std::string actual_adl;
  /// What the tracker announced (empty if never recognized).
  std::string recognized_adl;
  bool recognized_correctly = false;
  /// Sensed steps consumed before the announcement.
  std::size_t steps_to_recognition = 0;
  bool completed = false;
  sim::Duration elapsed;
  std::size_t steps_completed = 0;
  std::size_t prompts_total = 0;
  std::size_t prompts_idle = 0;
  std::size_t prompts_wrong_tool = 0;
  std::size_t prompts_minimal = 0;
  std::size_t prompts_specific = 0;
  std::size_t praises = 0;
  /// Wrong-tool prompts the resident subsequently corrected (the praise
  /// that closed an outstanding prompt followed a wrong-tool trigger).
  std::size_t wrong_tool_recoveries = 0;
  /// Recognition-gated mid-episode activity switches the deployment acted
  /// on (0 unless switching is enabled via set_tracker_params()).
  std::size_t segment_switches = 0;
  /// Every StepID the base station reported, in order.
  std::vector<adl::StepId> observed_steps;
};

class HomeDeployment;
/// The single-ADL deployment's earlier name; perfbench/ still spells it.
using CoredaSystem = HomeDeployment;

}  // namespace coreda::core
