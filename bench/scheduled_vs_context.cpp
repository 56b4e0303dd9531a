// Ablation A7: scheduled (Autominder-style, Pollack et al. [3]) vs
// context-aware (CoReDA) prompting.
//
// The paper's introduction criticizes systems "based solely on pre-planned
// routines of ADLs". This bench makes the criticism quantitative: the same
// simulated residents attempt tea-making assisted either by a
// clock-driven reminder plan (prompts at each step's learned mean time,
// blind to what the resident is doing) or by the full CoReDA loop
// (prompts only on the two sensed trigger situations).
//
// Metrics per severity: completion rate, prompts issued per session, and
// prompt aptness — the fraction of prompts naming the tool the resident
// actually needed at delivery time.

#include <cstdio>
#include <string>

#include "baselines/scheduled.hpp"
#include "core/home.hpp"
#include "trace/dataset.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace coreda;

struct Outcome {
  int sessions = 0;
  int completed = 0;
  std::size_t prompts = 0;
  std::size_t apt_prompts = 0;

  std::string completion() const {
    return std::to_string(completed) + "/" + std::to_string(sessions);
  }
  std::string prompts_per_session() const {
    return util::format_fixed(
        static_cast<double>(prompts) / std::max(sessions, 1), 1);
  }
  std::string aptness() const {
    return prompts == 0 ? "-"
                        : util::format_percent(
                              static_cast<double>(apt_prompts) /
                              static_cast<double>(prompts));
  }
};

/// Closed loop driven purely by the clock: prompts fire at the plan's
/// offsets whether or not the resident needs them.
Outcome run_scheduled(const adl::AdlLibrary& library,
                      const baselines::ScheduledReminderPlan& plan,
                      double severity, int sessions, std::uint64_t seed) {
  const adl::AdlRoutine& routine = plan.routine();
  Outcome outcome;
  util::Rng rng(seed);
  for (int s = 0; s < sessions; ++s) {
    sim::Scheduler scheduler;
    sensors::ManipulationWorld world;
    patient::PatientProfile profile =
        patient::PatientProfile::with_severity("R", severity);
    profile.comply_minimal = 1.0;
    profile.comply_specific = 1.0;
    patient::PatientActor actor(scheduler, world, library.tools(), profile,
                                rng.fork());
    actor.begin(routine);

    for (const auto& entry : plan.schedule()) {
      scheduler.schedule_at(
          sim::TimePoint::origin() + entry.at,
          [&actor, &outcome, &routine, tool = entry.tool] {
            if (actor.finished()) return;
            ++outcome.prompts;
            // Apt = the prompt names the step the resident actually needs.
            if (routine.step(actor.steps_completed()).tool == tool) {
              ++outcome.apt_prompts;
            }
            actor.receive_prompt(tool, planning::RemindingLevel::kSpecific);
          });
    }

    const sim::TimePoint deadline =
        sim::TimePoint::origin() + sim::Duration::minutes(30.0);
    while (!actor.finished() && scheduler.now() < deadline &&
           !scheduler.empty()) {
      scheduler.run(1);
    }
    ++outcome.sessions;
    outcome.completed += actor.finished();
  }
  return outcome;
}

Outcome run_context_aware(const adl::AdlLibrary& library, double severity,
                          int sessions, std::uint64_t seed) {
  core::SystemConfig config;
  config.seed = seed;
  core::HomeDeployment system(library, library.tea_making(), config);
  trace::DatasetBuilder datasets(
      library, patient::PatientProfile::with_severity("R", 0.0), seed + 1);
  system.pretrain(datasets.sensed_training_set(library.tea_making(), 120));

  patient::PatientProfile profile =
      patient::PatientProfile::with_severity("R", severity);
  profile.comply_minimal = 1.0;
  profile.comply_specific = 1.0;

  Outcome outcome;
  for (int s = 0; s < sessions; ++s) {
    const core::SessionResult result =
        system.run_session(profile, sim::Duration::minutes(30.0));
    ++outcome.sessions;
    outcome.completed += result.completed;
    outcome.prompts += result.prompts_total;
    // CoReDA prompts are praised on success; count a prompt apt when it
    // was eventually answered by the expected tool (praises track this).
    outcome.apt_prompts += result.praises;
  }
  return outcome;
}

}  // namespace

int main() {
  adl::AdlLibrary library;
  constexpr int kSessions = 12;

  // Train the scheduled plan from the same healthy recordings CoReDA's
  // planner trains on — timed episodes give the per-step start offsets.
  baselines::ScheduledReminderPlan plan(
      library.tea_making().primary_routine());
  trace::DatasetBuilder datasets(
      library, patient::PatientProfile::with_severity("R", 0.0), 71);
  for (const auto& episode : datasets.timed_set(library.tea_making(), 120)) {
    sim::Duration offset{};
    for (const patient::TimedStep& step : episode) {
      offset += step.think;
      plan.observe_step(step.tool, offset);
      offset += step.manipulation;
    }
  }

  std::puts("Ablation A7: scheduled (Autominder-style) vs context-aware "
            "prompting");
  std::printf("(Tea-making, %d sessions per cell, fully compliant "
              "residents)\n\n",
              kSessions);

  util::TextTable table;
  table.set_header({"Severity", "Method", "Completed", "Prompts/session",
                    "Apt prompts"});
  for (double severity : {0.0, 0.3, 0.6, 0.9}) {
    const Outcome scheduled =
        run_scheduled(library, plan, severity, kSessions, 81);
    const Outcome context =
        run_context_aware(library, severity, kSessions, 82);
    table.add_row({util::format_fixed(severity, 1), "scheduled",
                   scheduled.completion(), scheduled.prompts_per_session(),
                   scheduled.aptness()});
    table.add_row({util::format_fixed(severity, 1), "context-aware",
                   context.completion(), context.prompts_per_session(),
                   context.aptness()});
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts(
      "\nExpected shape: the scheduled plan issues a fixed 4 prompts per\n"
      "session regardless of need — mostly inapt for healthy residents and\n"
      "mistimed for slow ones (a compliant resident yanked to the\n"
      "scheduled step can even be derailed). The context-aware system\n"
      "prompts only when the sensed situation calls for it: near-zero\n"
      "prompts for healthy residents, scaling with severity, and higher\n"
      "aptness — the paper's \"minimal prompts\" principle in numbers.");
  return 0;
}
