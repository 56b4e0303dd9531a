#include "core/home.hpp"

#include <algorithm>
#include <stdexcept>

#include "reminding/catalog.hpp"
#include "trace/dataset.hpp"

namespace coreda::core {

HomeDeployment::HomeDeployment(const adl::AdlLibrary& library,
                               SystemConfig config)
    : library_(&library), config_(std::move(config)), rng_(config_.seed) {
  // Wrong-tool errors draw from the whole registry; provision the world's
  // episode table for every tool so first touches never allocate mid-session.
  adl::ToolId max_tool = 0;
  for (const adl::Tool& tool : library_->tools().tools()) {
    max_tool = std::max(max_tool, tool.id);
  }
  world_.provision(static_cast<std::size_t>(max_tool) + 1);
  channel_ = std::make_unique<pavenet::RadioChannel>(scheduler_, rng_.fork(),
                                                     config_.radio);
  station_ = std::make_unique<pavenet::BaseStation>(scheduler_, *channel_,
                                                    config_.station);
  // One node per tool across the whole catalog, woken together.
  nodes_ = std::make_unique<pavenet::NodeBank>(scheduler_, world_, *channel_,
                                               config_.firmware);
  for (const adl::Tool& tool : library_->tools().tools()) {
    nodes_->add(tool, rng_.fork());
  }
  nodes_->power_on();
  for (const adl::Adl& adl : library_->adls()) {
    learners_[adl.name()] = std::make_unique<planning::RoutineLearner>(
        adl, rng_.fork(), config_.learner);
  }
  reminder_ = std::make_unique<reminding::RemindingSubsystem>(
      *station_, library_->tools(),
      reminding::MessageCatalog(config_.user_name), config_.reminding);
  // Bind-once hookup, as in CoredaSystem: no per-event std::function hops.
  trigger_ = std::make_unique<reminding::TriggerMonitor>(
      scheduler_,
      reminding::TriggerMonitor::Callback::bind<&HomeDeployment::on_trigger>(
          this),
      config_.trigger);
  tracker_ = std::make_unique<recognition::ActivityTracker>(
      recognizer_,
      recognition::ActivityTracker::ActivityCallback::bind<
          &HomeDeployment::on_activity>(this));
  station_->add_listener(
      pavenet::BaseStation::UsageListener::bind<&HomeDeployment::on_usage>(
          this));
}

void HomeDeployment::pretrain(std::size_t episodes_per_adl,
                              std::uint64_t dataset_seed) {
  for (const adl::Adl& adl : library_->adls()) {
    trace::DatasetBuilder datasets(
        *library_, patient::PatientProfile::with_severity("User", 0.0),
        dataset_seed + std::hash<std::string>{}(adl.name()) % 1000);
    const auto episodes =
        datasets.sensed_training_set(adl, episodes_per_adl);
    planning::RoutineLearner& learner = *learners_.at(adl.name());
    for (const auto& ep : episodes) {
      learner.train_episode(ep);
      recognizer_.train(adl.name(), ep);
    }
  }
}

const planning::RoutineLearner& HomeDeployment::learner(
    const std::string& adl) const {
  const auto it = learners_.find(adl);
  if (it == learners_.end()) {
    throw std::out_of_range("HomeDeployment: unknown ADL '" + adl + "'");
  }
  return *it->second;
}

HomeSessionResult HomeDeployment::run_session(
    const std::string& adl_name, const patient::PatientProfile& profile,
    sim::Duration max_duration, const std::string& schedule_hint) {
  const adl::Adl& attempted = library_->by_name(adl_name);
  if (!schedule_hint.empty()) {
    library_->by_name(schedule_hint);  // validate before starting
  }

  if (actor_ == nullptr) {
    actor_ = std::make_unique<patient::PatientActor>(
        scheduler_, world_, library_->tools(), profile, rng_.fork());
  } else {
    actor_->reset(profile, rng_.fork());
  }

  HomeSessionResult result;
  result.actual_adl = adl_name;
  result_ = &result;
  session_active_ = true;
  active_adl_ = nullptr;
  active_learner_ = nullptr;
  prev_ = adl::kIdleStep;
  cur_ = adl::kIdleStep;
  prompt_outstanding_ = false;
  wrong_tool_prompted_ = false;
  contexts_.clear();
  progress_.clear();
  tracker_->close_episode();
  station_->reset_usage_history();
  reminder_->begin_session();
  for (const auto& node : nodes_->nodes()) {
    node->led().all_off();
    node->led().clear_history();
  }

  const sim::TimePoint start = scheduler_.now();
  const sim::TimePoint deadline = start + max_duration;

  actor_->begin(attempted.primary_routine());
  provisional_hint_.clear();
  if (!schedule_hint.empty()) {
    // Provisional activation from the care schedule: prompts can flow
    // before (or without) recognition. Recognition overrides it, but only
    // on solid evidence (see on_activity).
    activate(schedule_hint);
    provisional_hint_ = schedule_hint;
    arm_for_next();
  }
  while (!actor_->finished() && scheduler_.now() < deadline &&
         !scheduler_.empty()) {
    scheduler_.run(1);
  }

  trigger_->disarm();
  session_active_ = false;
  result_ = nullptr;

  result.completed = actor_->finished();
  result.elapsed = scheduler_.now() - start;
  return result;
}

HomeScriptResult HomeDeployment::run_script(
    const SessionScript& script, const patient::PatientProfile& profile,
    sim::Duration max_duration) {
  // Validate every named ADL before touching any session state.
  std::size_t total_segments = 0;
  for (const ScriptPart& part : script.parts) {
    if (!part.adl.empty()) {
      library_->by_name(part.adl);
      ++total_segments;
    }
  }
  if (!script.hint.empty()) library_->by_name(script.hint);

  if (actor_ == nullptr) {
    actor_ = std::make_unique<patient::PatientActor>(
        scheduler_, world_, library_->tools(), profile, rng_.fork());
  } else {
    actor_->reset(profile, rng_.fork());
  }

  HomeScriptResult out;
  HomeSessionResult session;
  result_ = &session;
  session_active_ = true;
  active_adl_ = nullptr;
  active_learner_ = nullptr;
  provisional_hint_.clear();
  prev_ = adl::kIdleStep;
  cur_ = adl::kIdleStep;
  prompt_outstanding_ = false;
  wrong_tool_prompted_ = false;
  contexts_.clear();
  progress_.clear();
  tracker_->close_episode();
  station_->reset_usage_history();
  reminder_->begin_session();
  for (const auto& node : nodes_->nodes()) {
    node->led().all_off();
    node->led().clear_history();
  }

  const sim::TimePoint start = scheduler_.now();
  const sim::TimePoint deadline = start + max_duration;
  const std::size_t episodes_before = tracker_->episodes_seen();

  bool first_segment = true;
  for (const ScriptPart& part : script.parts) {
    if (scheduler_.now() >= deadline) break;

    if (part.adl.empty()) {
      // Caregiver interruption: the resident stops acting while simulated
      // time advances. A pause longer than the tracker's idle gap closes
      // the episode (the next segment is a fresh recognition); a short one
      // keeps the episode — and the active planner context — alive.
      actor_->pause();
      trigger_->disarm();
      prompt_outstanding_ = false;
      const sim::TimePoint resume_at =
          std::min(scheduler_.now() + part.pause, deadline);
      // Anchor event so the drain below reaches resume_at even when the
      // node sampling queue would otherwise run dry.
      scheduler_.schedule_at(resume_at, [] {});
      while (scheduler_.now() < resume_at && !scheduler_.empty()) {
        scheduler_.run(1);
      }
      continue;
    }

    const adl::Adl& attempted = library_->by_name(part.adl);
    const adl::AdlRoutine& routine = attempted.primary_routine();
    const std::size_t from =
        part.resume ? std::min(progress_[part.adl], routine.size()) : 0;
    const std::size_t target =
        part.steps == 0 ? routine.size()
                        : std::min(from + part.steps, routine.size());
    ++out.segments;
    session.actual_adl = part.adl;  // the ADL currently attempted
    for (std::size_t i = 0; i < part.freeze; ++i) {
      actor_->force_next_decision(patient::PatientEvent::Kind::kFroze);
    }
    for (std::size_t i = 0; i < part.wrong_tool; ++i) {
      actor_->force_next_decision(patient::PatientEvent::Kind::kWrongTool,
                                  part.wrong_tool_id);
    }
    actor_->begin(routine, from);
    if (first_segment) {
      first_segment = false;
      if (!script.hint.empty()) {
        activate(script.hint);
        provisional_hint_ = script.hint;
        arm_for_next();
      }
    }
    while (!actor_->finished() && actor_->steps_completed() < target &&
           scheduler_.now() < deadline && !scheduler_.empty()) {
      scheduler_.run(1);
    }
    progress_[part.adl] = actor_->steps_completed();
    actor_->pause();
    // A trigger armed for this segment must not fire into the next one.
    trigger_->disarm();
    prompt_outstanding_ = false;
    if (actor_->steps_completed() >= target) ++out.segments_completed;
  }

  trigger_->disarm();
  session_active_ = false;
  result_ = nullptr;

  session.elapsed = scheduler_.now() - start;
  out.completed = out.segments_completed == total_segments;
  session.completed = out.completed;
  // episodes_seen counts episode *opens*; the first open of the run is the
  // session starting, every further one means an idle gap closed the
  // previous episode mid-script.
  const std::size_t opened = tracker_->episodes_seen() - episodes_before;
  out.idle_episodes = opened > 0 ? opened - 1 : 0;
  out.session = session;
  return out;
}

void HomeDeployment::set_tracker_params(
    const recognition::ActivityTracker::Params& params) {
  tracker_ = std::make_unique<recognition::ActivityTracker>(
      recognizer_,
      recognition::ActivityTracker::ActivityCallback::bind<
          &HomeDeployment::on_activity>(this),
      params);
}

void HomeDeployment::import_policy(const std::string& adl_name,
                                   const rl::QTable& q) {
  const auto it = learners_.find(adl_name);
  if (it == learners_.end()) {
    throw std::out_of_range("HomeDeployment: unknown ADL '" + adl_name +
                            "'");
  }
  it->second->import_q(q);
}

void HomeDeployment::adopt_recognizer(
    const recognition::AdlRecognizer& donor) {
  // The tracker's announced activity points into the old model table.
  tracker_->close_episode();
  recognizer_ = donor;
}

void HomeDeployment::on_usage(adl::ToolId tool, sim::TimePoint at) {
  if (!session_active_ || result_ == nullptr) return;

  // Recognition first: the tracker announces the activity via
  // on_activity() once confident.
  tracker_->observe(tool, at);

  if (active_learner_ == nullptr) return;  // not recognized yet

  // From here on, the single-ADL CoReDA loop (see CoredaSystem) applies,
  // except that StepIDs outside the recognized ADL's vocabulary are
  // ignored (another room's sensor noise must not derail the session).
  const auto vocabulary = active_adl_->tools();
  if (std::find(vocabulary.begin(), vocabulary.end(), tool) ==
      vocabulary.end()) {
    return;
  }

  if (trigger_->armed()) {
    if (trigger_->notify_usage(tool)) {
      if (prompt_outstanding_) {
        reminder_->praise(scheduler_.now(), tool);
        ++result_->praises;
        if (wrong_tool_prompted_) {
          ++result_->wrong_tool_recoveries;
          wrong_tool_prompted_ = false;
        }
        prompt_outstanding_ = false;
      }
      prev_ = cur_;
      cur_ = tool;
      if (!active_adl_->primary_routine().is_terminal(tool)) arm_for_next();
    }
    return;
  }

  if (cur_ == adl::kIdleStep) {
    cur_ = tool;
    arm_for_next();
  }
}

void HomeDeployment::activate(const std::string& adl_name) {
  active_adl_ = &library_->by_name(adl_name);
  active_learner_ = learners_.at(adl_name).get();
  prev_ = adl::kIdleStep;
  cur_ = adl::kIdleStep;
  prompt_outstanding_ = false;
  wrong_tool_prompted_ = false;
}

void HomeDeployment::on_activity(const std::string& adl_name,
                                 sim::TimePoint /*at*/) {
  if (!session_active_ || result_ == nullptr) return;

  const bool was_provisional = !provisional_hint_.empty();
  if (was_provisional && adl_name != provisional_hint_) {
    // Overriding the care schedule needs more than one observation: a
    // single off-activity tool is exactly what the wrong-tool error mode
    // produces, and prompting the wrong ADL is self-reinforcing (the
    // compliant resident follows the prompts, manufacturing evidence).
    const auto vocabulary = library_->by_name(adl_name).tools();
    std::size_t supporting = 0;
    for (adl::StepId s : tracker_->episode_steps()) {
      if (std::find(vocabulary.begin(), vocabulary.end(), s) !=
          vocabulary.end()) {
        ++supporting;
      }
    }
    if (supporting < 2) {
      tracker_->retract();  // re-announce when more evidence accumulates
      return;
    }
  }
  provisional_hint_.clear();

  result_->recognized_adl = adl_name;
  result_->recognized_correctly = adl_name == result_->actual_adl;
  result_->steps_to_recognition = tracker_->episode_steps().size();

  if (!was_provisional && active_adl_ != nullptr &&
      adl_name != active_adl_->name()) {
    // Recognition-gated mid-episode switch: park the outgoing ADL's
    // planner context so a later return to it resumes exactly where the
    // resident left off. (A hint override is recognition *correcting* a
    // provisional guess, not a switch; its context is speculative.)
    ++result_->segment_switches;
    contexts_[active_adl_->name()] = AdlContext{prev_, cur_};
  }

  activate(adl_name);

  if (const auto it = contexts_.find(adl_name); it != contexts_.end()) {
    // Returning to an ADL served earlier this session: its saved context
    // beats re-deriving one from episode steps, which by now are dominated
    // by the *other* activity's tools.
    prev_ = it->second.prev;
    cur_ = it->second.cur;
    arm_for_next();
    return;
  }

  // Seed the planner context from the steps observed so far (the tracker
  // kept them while recognition was pending), restricted to the announced
  // ADL's vocabulary — wrong-tool intrusions must not poison the context.
  const auto vocabulary = active_adl_->tools();
  std::vector<adl::StepId> in_vocab;
  for (adl::StepId s : tracker_->episode_steps()) {
    if (std::find(vocabulary.begin(), vocabulary.end(), s) !=
        vocabulary.end()) {
      in_vocab.push_back(s);
    }
  }
  prev_ = in_vocab.size() >= 2 ? in_vocab[in_vocab.size() - 2]
                               : adl::kIdleStep;
  cur_ = in_vocab.empty() ? adl::kIdleStep : in_vocab.back();
  arm_for_next();
}

void HomeDeployment::arm_for_next() {
  if (active_learner_ == nullptr) return;
  const auto prompt = active_learner_->predict(prev_, cur_);
  if (!prompt) return;
  sim::Duration timeout{};
  if (cur_ != adl::kIdleStep) {
    timeout = trigger_->timeout_for(library_->tools().at(cur_));
  }
  trigger_->arm(prompt->action.tool, timeout);
}

void HomeDeployment::on_trigger(reminding::Trigger trigger,
                                adl::ToolId observed) {
  if (!session_active_ || active_learner_ == nullptr ||
      result_ == nullptr) {
    return;
  }
  const auto prompt = active_learner_->predict(prev_, cur_);
  if (!prompt) return;

  planning::RemindingLevel level = prompt->action.level;
  if (config_.escalate_reprompts && prompt_outstanding_) {
    level = planning::RemindingLevel::kSpecific;
  }
  reminder_->remind(scheduler_.now(), trigger, prompt->action.tool, level,
                    trigger == reminding::Trigger::kWrongTool
                        ? std::optional<adl::ToolId>(observed)
                        : std::nullopt);
  ++result_->prompts_total;
  prompt_outstanding_ = true;
  wrong_tool_prompted_ = trigger == reminding::Trigger::kWrongTool;
  actor_->receive_prompt(prompt->action.tool, level);
}

}  // namespace coreda::core
