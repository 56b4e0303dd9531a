#include "core/system.hpp"

#include <algorithm>

#include "reminding/catalog.hpp"

namespace coreda::core {

CoredaSystem::CoredaSystem(const adl::AdlLibrary& library,
                           const adl::Adl& adl, SystemConfig config)
    : library_(&library),
      adl_(&adl),
      config_(std::move(config)),
      rng_(config_.seed) {
  // The patient can grab any registered tool (wrong-tool errors draw from
  // the whole registry), so provision the world's episode table for all of
  // them — first touches then never allocate at serving time.
  adl::ToolId max_tool = 0;
  for (const adl::Tool& tool : library_->tools().tools()) {
    max_tool = std::max(max_tool, tool.id);
  }
  world_.provision(static_cast<std::size_t>(max_tool) + 1);
  // Same rationale for every lazily-grown simulation container: pay the
  // high-water capacity here, once, instead of inside a slot's first timed
  // session. 256 pending events / 16 in-flight frames sit well above what
  // the busiest session of any bench or test reaches.
  scheduler_.reserve(256);
  channel_ = std::make_unique<pavenet::RadioChannel>(scheduler_, rng_.fork(),
                                                     config_.radio);
  channel_->reserve(16);
  station_ = std::make_unique<pavenet::BaseStation>(scheduler_, *channel_,
                                                    config_.station);
  station_->provision_tools(static_cast<std::size_t>(max_tool) + 1);
  nodes_ = std::make_unique<pavenet::NodeBank>(scheduler_, world_, *channel_,
                                               config_.firmware);
  for (adl::ToolId id : adl_->tools()) {
    nodes_->add(library_->tools().at(id), rng_.fork());
  }
  nodes_->power_on();
  learner_ = std::make_unique<planning::RoutineLearner>(*adl_, rng_.fork(),
                                                        config_.learner);
  reminder_ = std::make_unique<reminding::RemindingSubsystem>(
      *station_, library_->tools(),
      reminding::MessageCatalog(config_.user_name), config_.reminding);
  // Bind-once hookup: FnRefs straight at the member functions, so the
  // per-event dispatch chain never re-wraps a std::function.
  trigger_ = std::make_unique<reminding::TriggerMonitor>(
      scheduler_,
      reminding::TriggerMonitor::Callback::bind<&CoredaSystem::on_trigger>(
          this),
      config_.trigger);
  station_->add_listener(
      pavenet::BaseStation::UsageListener::bind<&CoredaSystem::on_usage>(
          this));
  // Build the actor warm with a placeholder profile and a throwaway Rng —
  // NOT rng_.fork(), which would shift every downstream stream. Every
  // session (including the very first) then takes the reset path below with
  // exactly one fork, so construction order cannot change any outcome, and
  // a slot's first serve inside a timed drain no longer pays the actor's
  // allocations (the dedicated-slot allocs_per_session artifact).
  actor_ = std::make_unique<patient::PatientActor>(
      scheduler_, world_, library_->tools(), patient::PatientProfile{},
      util::Rng());
}

const pavenet::PavenetNode& CoredaSystem::node(adl::ToolId tool) const {
  for (const auto& n : nodes_->nodes()) {
    if (n->uid() == tool) return *n;
  }
  throw std::out_of_range("CoredaSystem: no node on tool " +
                          std::to_string(tool));
}

void CoredaSystem::pretrain(
    std::span<const std::vector<adl::StepId>> episodes) {
  for (const auto& ep : episodes) learner_->train_episode(ep);
}

void CoredaSystem::import_policy(const rl::QTable& q) {
  learner_->import_q(q);
}

SessionResult CoredaSystem::run_session(
    const patient::PatientProfile& profile, sim::Duration max_duration) {
  return run_session(profile, max_duration, {});
}

SessionResult CoredaSystem::run_session(
    const patient::PatientProfile& profile, sim::Duration max_duration,
    const std::function<void(patient::PatientActor&)>& setup) {
  run_session_inplace(profile, max_duration, setup, scratch_result_);
  return scratch_result_;
}

void CoredaSystem::run_session_inplace(
    const patient::PatientProfile& profile, sim::Duration max_duration,
    const std::function<void(patient::PatientActor&)>& setup,
    SessionResult& result) {
  // Reset, don't rebuild: the actor keeps its event buffer, the station its
  // episode table, the reminder its string pools. Only the RNG stream moves
  // forward (one fork per session, exactly as before).
  actor_->reset(profile, rng_.fork());
  if (setup) setup(*actor_);

  result.completed = false;
  result.elapsed = sim::Duration{};
  result.steps_completed = 0;
  result.prompts_total = 0;
  result.prompts_idle = 0;
  result.prompts_wrong_tool = 0;
  result.prompts_minimal = 0;
  result.prompts_specific = 0;
  result.praises = 0;
  result.observed_steps.clear();
  // Step counts vary session to session; pre-size past the worst realistic
  // session once so recording steps never reallocates a warm result buffer.
  if (result.observed_steps.capacity() < kMaxSessionSteps) {
    result.observed_steps.reserve(kMaxSessionSteps);
  }

  result_ = &result;
  session_active_ = true;
  prev_ = adl::kIdleStep;
  cur_ = adl::kIdleStep;
  prompt_outstanding_ = false;
  station_->reset_usage_history();
  reminder_->begin_session();
  // LED state and transcripts are per-session, like the reminder log:
  // all_off() cancels any blink series still running from the previous
  // session (otherwise leftover toggles pile into the next session's event
  // queue and history), and clearing keeps the history vectors' capacity,
  // so a warm session records for free.
  for (const auto& node : nodes_->nodes()) {
    node->led().all_off();
    node->led().clear_history();
  }

  const sim::TimePoint start = scheduler_.now();
  const sim::TimePoint deadline = start + max_duration;

  actor_->begin(adl_->primary_routine());
  // The planner knows the first step from the <idle, idle> context, so a
  // user who freezes before touching anything still gets prompted.
  arm_for_next();
  while (!actor_->finished() && scheduler_.now() < deadline &&
         !scheduler_.empty()) {
    scheduler_.run(1);
  }

  trigger_->disarm();
  session_active_ = false;
  result_ = nullptr;

  result.completed = actor_->finished();
  result.elapsed = scheduler_.now() - start;
  result.steps_completed = actor_->steps_completed();

  if (config_.learn_from_sessions && result.completed) {
    learner_->train_episode(result.observed_steps);
  }
}

void CoredaSystem::on_usage(adl::ToolId tool, sim::TimePoint /*at*/) {
  if (!session_active_ || result_ == nullptr) return;
  result_->observed_steps.push_back(tool);

  if (trigger_->armed()) {
    if (trigger_->notify_usage(tool)) {
      // Expected tool: progress. Praise if it answered a prompt (Fig. 1).
      if (prompt_outstanding_) {
        reminder_->praise(scheduler_.now(), tool);
        ++result_->praises;
        prompt_outstanding_ = false;
      }
      prev_ = cur_;
      cur_ = tool;
      if (!adl_->primary_routine().is_terminal(tool)) arm_for_next();
    }
    // Wrong tool: on_trigger already fired synchronously via notify_usage;
    // the context does not advance.
    return;
  }

  if (cur_ == adl::kIdleStep) {
    // Unarmed session start (no usable prediction): the first observed
    // step simply starts the prediction chain (the paper's Table 4 note).
    cur_ = tool;
    arm_for_next();
  }
  // Otherwise unarmed (terminal reached): record only.
}

void CoredaSystem::arm_for_next() {
  const auto prompt = learner_->predict(prev_, cur_);
  if (!prompt) return;
  // Footnote 1 of the paper: the waiting period is derived from how long
  // the user typically keeps using the *current* tool. The timer starts at
  // the sensed start of the current step, so it must cover that step's own
  // duration before declaring the user stuck. At session start (no current
  // tool) the default waiting period applies — the 30 s of Figure 1.
  sim::Duration timeout{};  // 0 = TriggerMonitor default
  if (cur_ != adl::kIdleStep) {
    timeout = trigger_->timeout_for(library_->tools().at(cur_));
  }
  trigger_->arm(prompt->action.tool, timeout);
}

void CoredaSystem::on_trigger(reminding::Trigger trigger,
                              adl::ToolId observed) {
  if (!session_active_) return;
  issue_prompt(trigger, trigger == reminding::Trigger::kWrongTool
                            ? std::optional<adl::ToolId>(observed)
                            : std::nullopt);
}

void CoredaSystem::issue_prompt(reminding::Trigger trigger,
                                std::optional<adl::ToolId> wrong_tool) {
  const auto prompt = learner_->predict(prev_, cur_);
  if (!prompt || result_ == nullptr) return;

  // An unanswered prompt firing again means the minimal nudge was not
  // enough; escalate to the specific level.
  planning::RemindingLevel level = prompt->action.level;
  if (config_.escalate_reprompts && prompt_outstanding_) {
    level = planning::RemindingLevel::kSpecific;
  }

  reminder_->remind(scheduler_.now(), trigger, prompt->action.tool, level,
                    wrong_tool);
  ++result_->prompts_total;
  if (trigger == reminding::Trigger::kIdleTimeout) {
    ++result_->prompts_idle;
  } else {
    ++result_->prompts_wrong_tool;
  }
  if (level == planning::RemindingLevel::kMinimal) {
    ++result_->prompts_minimal;
  } else {
    ++result_->prompts_specific;
  }
  prompt_outstanding_ = true;

  // The display and LEDs reach the user; the simulated patient perceives
  // the prompt directly (the radio-borne LED command is cosmetic for the
  // nodes' state, display delivery is wired).
  actor_->receive_prompt(prompt->action.tool, level);
}

}  // namespace coreda::core
