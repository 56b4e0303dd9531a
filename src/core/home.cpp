#include "core/home.hpp"

#include <algorithm>
#include <stdexcept>

#include "reminding/catalog.hpp"
#include "trace/dataset.hpp"

namespace coreda::core {

HomeDeployment::HomeDeployment(const adl::AdlLibrary& library,
                               SystemConfig config)
    : HomeDeployment(library, nullptr, std::move(config)) {}

HomeDeployment::HomeDeployment(const adl::AdlLibrary& library,
                               const adl::Adl& adl, SystemConfig config)
    : HomeDeployment(library, &adl, std::move(config)) {}

HomeDeployment::HomeDeployment(const adl::AdlLibrary& library,
                               const adl::Adl* adl, SystemConfig config)
    : library_(&library), adl_(adl), config_(std::move(config)),
      rng_(config_.seed) {
  if (adl_ == nullptr && config_.learn_from_sessions) {
    throw std::invalid_argument(
        "HomeDeployment: learn_from_sessions needs a single-ADL deployment");
  }
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
  // One node per deployed tool, woken together.
  nodes_ = std::make_unique<pavenet::NodeBank>(scheduler_, world_, *channel_,
                                               config_.firmware);
  if (adl_ != nullptr) {
    for (adl::ToolId id : adl_->tools()) {
      nodes_->add(library_->tools().at(id), rng_.fork());
    }
  } else {
    for (const adl::Tool& tool : library_->tools().tools()) {
      nodes_->add(tool, rng_.fork());
    }
  }
  nodes_->power_on();
  const std::span<const adl::Adl> served =
      adl_ != nullptr ? std::span(adl_, 1) : std::span(library_->adls());
  for (const adl::Adl& adl : served) {
    learners_[adl.name()] = std::make_unique<planning::RoutineLearner>(
        adl, rng_.fork(), config_.learner);
  }
  reminder_ = std::make_unique<reminding::RemindingSubsystem>(
      *station_, library_->tools(),
      reminding::MessageCatalog(config_.user_name), config_.reminding);
  // Bind-once hookup: FnRefs straight at the member functions, so the
  // per-event dispatch chain never re-wraps a std::function.
  trigger_ = std::make_unique<reminding::TriggerMonitor>(
      scheduler_,
      reminding::TriggerMonitor::Callback::bind<&HomeDeployment::on_trigger>(
          this),
      config_.trigger);
  if (adl_ == nullptr) set_tracker_params({});
  station_->add_listener(
      pavenet::BaseStation::UsageListener::bind<&HomeDeployment::on_usage>(
          this));
  // Build the actor warm with a placeholder profile and a throwaway Rng —
  // NOT rng_.fork(), which would shift every downstream stream. Every
  // session (including the very first) then takes the reset path with
  // exactly one fork, so construction order cannot change any outcome, and
  // a slot's first serve inside a timed drain no longer pays the actor's
  // allocations (the dedicated-slot allocs_per_session artifact).
  actor_ = std::make_unique<patient::PatientActor>(
      scheduler_, world_, library_->tools(), patient::PatientProfile{},
      util::Rng());
}

const adl::Adl& HomeDeployment::adl() const {
  if (adl_ == nullptr) {
    throw std::logic_error("HomeDeployment: a whole home has no single ADL");
  }
  return *adl_;
}

recognition::ActivityTracker& HomeDeployment::tracker() {
  if (tracker_ == nullptr) {
    throw std::logic_error(
        "HomeDeployment: a single-ADL deployment has recognition off");
  }
  return *tracker_;
}

planning::RoutineLearner& HomeDeployment::planner(
    const std::string& adl) const {
  const auto it = learners_.find(adl);
  if (it == learners_.end()) {
    throw std::out_of_range("HomeDeployment: unknown ADL '" + adl + "'");
  }
  return *it->second;
}

const pavenet::PavenetNode& HomeDeployment::node(adl::ToolId tool) const {
  for (const auto& n : nodes_->nodes()) {
    if (n->uid() == tool) return *n;
  }
  throw std::out_of_range("HomeDeployment: no node on tool " +
                          std::to_string(tool));
}

void HomeDeployment::pretrain(std::size_t episodes_per_adl,
                              std::uint64_t dataset_seed) {
  tracker();  // whole home only
  for (const adl::Adl& adl : library_->adls()) {
    trace::DatasetBuilder datasets(
        *library_, patient::PatientProfile::with_severity("User", 0.0),
        dataset_seed + std::hash<std::string>{}(adl.name()) % 1000);
    const auto episodes =
        datasets.sensed_training_set(adl, episodes_per_adl);
    planning::RoutineLearner& learner = planner(adl.name());
    for (const auto& ep : episodes) {
      learner.train_episode(ep);
      recognizer_.train(adl.name(), ep);
    }
  }
}

void HomeDeployment::pretrain(
    std::span<const std::vector<adl::StepId>> episodes) {
  planning::RoutineLearner& learner = planner(adl().name());
  for (const auto& ep : episodes) learner.train_episode(ep);
}

void HomeDeployment::import_policy(const std::string& adl_name,
                                   const rl::QTable& q) {
  planner(adl_name).import_q(q);
}

void HomeDeployment::import_policy(const rl::QTable& q) {
  import_policy(adl().name(), q);
}

void HomeDeployment::set_tracker_params(
    const recognition::ActivityTracker::Params& params) {
  if (adl_ != nullptr) tracker();  // recognition stays off on one ADL
  tracker_ = std::make_unique<recognition::ActivityTracker>(
      recognizer_,
      recognition::ActivityTracker::ActivityCallback::bind<
          &HomeDeployment::on_activity>(this),
      params);
}

void HomeDeployment::adopt_recognizer(
    const recognition::AdlRecognizer& donor) {
  // The tracker's announced activity points into the old model table.
  tracker().close_episode();
  recognizer_ = donor;
}

SessionResult HomeDeployment::run_session(
    const patient::PatientProfile& profile, sim::Duration max_duration,
    const Setup& setup) {
  run_session_inplace(profile, max_duration, setup, scratch_result_);
  return scratch_result_;
}

void HomeDeployment::run_session_inplace(
    const patient::PatientProfile& profile, sim::Duration max_duration,
    const Setup& setup, SessionResult& result) {
  serve(adl(), profile, max_duration, setup, {}, result);
}

SessionResult HomeDeployment::run_session(
    const std::string& adl_name, const patient::PatientProfile& profile,
    sim::Duration max_duration, const std::string& schedule_hint) {
  tracker();  // whole home only
  const adl::Adl& attempted = library_->by_name(adl_name);
  if (!schedule_hint.empty()) {
    library_->by_name(schedule_hint);  // validate before starting
  }
  serve(attempted, profile, max_duration, {}, schedule_hint,
        scratch_result_);
  return scratch_result_;
}

/// Ends the session on every exit path, a throwing event included, so a
/// failed session leaves no armed trigger or dangling result behind.
struct HomeDeployment::SessionScope {
  HomeDeployment& home;
  ~SessionScope() {
    home.trigger_->disarm();
    home.result_ = nullptr;
  }
};

HomeDeployment::SessionScope HomeDeployment::begin_session(
    const patient::PatientProfile& profile, const Setup& setup,
    SessionResult& result) {
  // Reset, don't rebuild: the actor keeps its event buffer, the station its
  // episode table, the reminder its string pools. Only the RNG stream moves
  // forward (one fork per session).
  actor_->reset(profile, rng_.fork());
  if (setup) setup(*actor_);

  // Zero the outcome but keep its buffers' capacity, and pre-size
  // observed_steps past the worst realistic session once, so a warm result
  // records allocation-free.
  SessionResult fresh;
  fresh.actual_adl.swap(result.actual_adl);
  fresh.recognized_adl.swap(result.recognized_adl);
  fresh.observed_steps.swap(result.observed_steps);
  fresh.actual_adl.clear();
  fresh.recognized_adl.clear();
  fresh.observed_steps.clear();
  if (fresh.observed_steps.capacity() < kMaxSessionSteps) {
    fresh.observed_steps.reserve(kMaxSessionSteps);
  }
  result = std::move(fresh);

  // One ADL is active from the first moment; a whole home waits for
  // recognition or a schedule hint.
  activate(adl_);
  provisional_hint_.clear();
  contexts_.clear();
  progress_.clear();
  if (tracker_ != nullptr) tracker_->close_episode();
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
  result_ = &result;  // last, so a throw above leaves no session running
  return SessionScope{*this};
}

void HomeDeployment::start_assisting(const std::string& hint) {
  if (!hint.empty()) {
    // Provisional activation from the care schedule: prompts can flow
    // before (or without) recognition. Recognition overrides it, but only
    // on solid evidence (see on_activity).
    activate(&library_->by_name(hint));
    provisional_hint_ = hint;
  }
  // The planner knows the first step from the <idle, idle> context, so a
  // user who freezes before touching anything still gets prompted.
  arm_for_next();
}

void HomeDeployment::run_until(sim::TimePoint deadline, std::size_t target) {
  while (!actor_->finished() && actor_->steps_completed() < target &&
         scheduler_.now() < deadline && !scheduler_.empty()) {
    scheduler_.run(1);
  }
}

void HomeDeployment::serve(const adl::Adl& attempted,
                           const patient::PatientProfile& profile,
                           sim::Duration max_duration, const Setup& setup,
                           const std::string& hint, SessionResult& result) {
  const SessionScope scope = begin_session(profile, setup, result);
  result.actual_adl = attempted.name();
  const sim::TimePoint start = scheduler_.now();
  actor_->begin(attempted.primary_routine());
  start_assisting(hint);
  run_until(start + max_duration, attempted.primary_routine().size());
  result.completed = actor_->finished();
  result.elapsed = scheduler_.now() - start;
  result.steps_completed = actor_->steps_completed();
  if (config_.learn_from_sessions && result.completed) {
    active_learner_->train_episode(result.observed_steps);
  }
}

HomeScriptResult HomeDeployment::run_script(
    const SessionScript& script, const patient::PatientProfile& profile,
    sim::Duration max_duration) {
  // Validate the whole script before touching any session state.
  recognition::ActivityTracker& tracker = this->tracker();
  std::size_t total_segments = 0;
  for (const ScriptPart& part : script.parts) {
    if (!part.adl.empty()) {
      library_->by_name(part.adl);
      ++total_segments;
    } else if (part.pause < sim::Duration{}) {
      throw std::invalid_argument("HomeDeployment: negative script pause");
    }
  }
  if (!script.hint.empty()) library_->by_name(script.hint);

  HomeScriptResult out;
  SessionResult& session = out.session;
  const SessionScope scope = begin_session(profile, {}, session);
  const sim::TimePoint start = scheduler_.now();
  const sim::TimePoint deadline = start + max_duration;
  const std::size_t episodes_before = tracker.episodes_seen();
  bool first_segment = true;
  for (const ScriptPart& part : script.parts) {
    if (scheduler_.now() >= deadline) break;

    if (part.adl.empty()) {
      // Caregiver interruption: the resident stops acting while simulated
      // time advances. A pause longer than the tracker's idle gap closes
      // the episode (the next segment is a fresh recognition); a short
      // one keeps the episode — and the active planner context — alive.
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

    const adl::AdlRoutine& routine =
        library_->by_name(part.adl).primary_routine();
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
      start_assisting(script.hint);
    }
    run_until(deadline, target);
    progress_[part.adl] = actor_->steps_completed();
    actor_->pause();
    // A trigger armed for this segment must not fire into the next one.
    trigger_->disarm();
    prompt_outstanding_ = false;
    if (actor_->steps_completed() >= target) ++out.segments_completed;
  }

  session.elapsed = scheduler_.now() - start;
  session.steps_completed = actor_->steps_completed();
  out.completed = out.segments_completed == total_segments;
  session.completed = out.completed;
  // episodes_seen counts episode *opens*; the first open of the run is the
  // session starting, every further one means an idle gap closed the
  // previous episode mid-script.
  const std::size_t opened = tracker.episodes_seen() - episodes_before;
  out.idle_episodes = opened > 0 ? opened - 1 : 0;
  return out;
}

void HomeDeployment::on_usage(adl::ToolId tool, sim::TimePoint at) {
  if (result_ == nullptr) return;  // between sessions
  result_->observed_steps.push_back(tool);

  // Recognition first: the tracker announces the activity via
  // on_activity() once confident.
  if (tracker_ != nullptr) tracker_->observe(tool, at);
  if (active_learner_ == nullptr) return;  // not recognized yet

  // StepIDs outside the active ADL's vocabulary are ignored (another
  // room's sensor noise must not derail the session).
  if (!active_adl_->uses(tool)) return;

  if (trigger_->armed()) {
    if (trigger_->notify_usage(tool)) {
      // Expected tool: progress. Praise if it answered a prompt (Fig. 1).
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

void HomeDeployment::activate(const adl::Adl* adl) {
  active_adl_ = adl;
  active_learner_ = adl == nullptr ? nullptr : &planner(adl->name());
  prev_ = adl::kIdleStep;
  cur_ = adl::kIdleStep;
  prompt_outstanding_ = false;
  wrong_tool_prompted_ = false;
}

void HomeDeployment::on_activity(const std::string& adl_name,
                                 sim::TimePoint /*at*/) {
  if (result_ == nullptr) return;

  const adl::Adl& announced = library_->by_name(adl_name);
  const auto in_vocabulary = [&announced](adl::StepId s) {
    return announced.uses(s);
  };
  const std::vector<adl::StepId>& seen = tracker_->episode_steps();
  const bool was_provisional = !provisional_hint_.empty();
  if (was_provisional && adl_name != provisional_hint_ &&
      std::count_if(seen.begin(), seen.end(), in_vocabulary) < 2) {
    // Overriding the care schedule needs more than one observation: a
    // single off-activity tool is exactly what the wrong-tool error mode
    // produces, and prompting the wrong ADL is self-reinforcing (the
    // compliant resident follows the prompts, manufacturing evidence).
    tracker_->retract();  // re-announce when more evidence accumulates
    return;
  }
  provisional_hint_.clear();

  result_->recognized_adl = adl_name;
  result_->recognized_correctly = adl_name == result_->actual_adl;
  result_->steps_to_recognition = seen.size();

  if (!was_provisional && active_adl_ != nullptr &&
      adl_name != active_adl_->name()) {
    // Recognition-gated mid-episode switch: park the outgoing ADL's
    // planner context so a later return to it resumes exactly where the
    // resident left off. (A hint override is recognition *correcting* a
    // provisional guess, not a switch; its context is speculative.)
    ++result_->segment_switches;
    contexts_[active_adl_->name()] = AdlContext{prev_, cur_};
  }

  activate(&announced);

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
  for (adl::StepId s : seen) {
    if (!in_vocabulary(s)) continue;
    prev_ = cur_;
    cur_ = s;
  }
  arm_for_next();
}

void HomeDeployment::arm_for_next() {
  if (active_learner_ == nullptr) return;
  const auto prompt = active_learner_->predict(prev_, cur_);
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

void HomeDeployment::on_trigger(reminding::Trigger trigger,
                                adl::ToolId observed) {
  if (result_ == nullptr || active_learner_ == nullptr) return;
  const auto prompt = active_learner_->predict(prev_, cur_);
  if (!prompt) return;

  // An unanswered prompt firing again means the minimal nudge was not
  // enough; escalate to the specific level.
  planning::RemindingLevel level = prompt->action.level;
  if (config_.escalate_reprompts && prompt_outstanding_) {
    level = planning::RemindingLevel::kSpecific;
  }
  const bool wrong_tool = trigger == reminding::Trigger::kWrongTool;
  reminder_->remind(scheduler_.now(), trigger, prompt->action.tool, level,
                    wrong_tool ? std::optional<adl::ToolId>(observed)
                               : std::nullopt);
  ++result_->prompts_total;
  ++(wrong_tool ? result_->prompts_wrong_tool : result_->prompts_idle);
  ++(level == planning::RemindingLevel::kMinimal ? result_->prompts_minimal
                                                  : result_->prompts_specific);
  prompt_outstanding_ = true;
  wrong_tool_prompted_ = wrong_tool;

  // The display and LEDs reach the user; the simulated patient perceives
  // the prompt directly (the radio-borne LED command is cosmetic for the
  // nodes' state, display delivery is wired).
  actor_->receive_prompt(prompt->action.tool, level);
}

}  // namespace coreda::core
