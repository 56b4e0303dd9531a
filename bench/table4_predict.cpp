// Reproduces Table 4 of the paper: "Predict Precision of ADL Step".
//
// Paper setup (§3.3): after training, 30 test samples per ADL in which the
// two reminder-triggering situations are equally examined — (1) the user
// does not use the expected tool for the waiting period, (2) the user
// incorrectly uses another tool. A prediction is correct when the planner
// names the routine's actual next tool for the context in which the
// trigger fired. The paper reports 100 % for every step except the first,
// which has no entry "because we need them to trigger the start of
// prediction".
//
// Neither trigger situation changes the planner's context (an idle wait
// keeps <prev, cur>; a wrong tool is reported but does not advance the
// context), so the measured quantity is the trained policy's prompt for
// each in-routine context — which we draw 30 times per ADL with the two
// situations alternating, exactly like the paper's protocol.
//
// A second table goes beyond the paper: the same faults injected into the
// *closed loop* (sensing noise, radio, compliance), reporting how reliably
// the deployed system still walks the user to completion.

#include <cstdio>
#include <string>
#include <vector>

#include "core/home.hpp"
#include "trace/dataset.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace coreda;
using Kind = patient::PatientEvent::Kind;

}  // namespace

int main() {
  adl::AdlLibrary library;
  constexpr int kTestSamples = 30;  // paper: 30 test samples per ADL

  util::TextTable table(
      "Table 4. Predict Precision of ADL Step (30 test samples per ADL,\n"
      "idle-timeout and wrong-tool situations equally examined)");
  table.set_header({"ADL", "ADL Step", "Paper", "Measured", "Cases"});

  util::TextTable closed_loop(
      "Beyond the paper: the same faults injected into the closed loop");
  closed_loop.set_header({"ADL", "Sessions", "Completed", "Prompts/session"});

  for (const char* name : {"Tooth-brushing", "Tea-making"}) {
    const adl::Adl& adl = library.by_name(name);
    const adl::AdlRoutine& routine = adl.primary_routine();

    // Train exactly like the deployment: 120 sensed recordings.
    planning::RoutineLearner learner(adl, util::Rng(777));
    trace::DatasetBuilder datasets(
        library, patient::PatientProfile::with_severity("User", 0.0), 2005);
    for (const auto& ep : datasets.sensed_training_set(adl, 120)) {
      learner.train_episode(ep);
    }

    // ---- the paper's offline protocol --------------------------------
    std::vector<util::PrecisionCounter> per_step(routine.size());
    std::vector<std::size_t> idle_cases(routine.size(), 0);
    std::vector<std::size_t> wrong_cases(routine.size(), 0);
    util::Rng sampler(4242);

    for (int sample = 0; sample < kTestSamples; ++sample) {
      // Predicting step `target` from the context of step target-1.
      const std::size_t target = 1 + sampler.pick_index(routine.size() - 1);
      const bool idle_case = sample % 2 == 0;

      const adl::StepId prev = target >= 2
                                   ? routine.step(target - 2).step_id()
                                   : adl::kIdleStep;
      const adl::StepId cur = routine.step(target - 1).step_id();
      // Situation 2 reports a wrong tool; the paper's planner keeps the
      // context and prompts from it (the wrong usage does not become the
      // current step). Both situations therefore query the same state.
      const auto prompt = learner.predict(prev, cur);

      const bool correct =
          prompt && prompt->action.tool == routine.step(target).tool;
      per_step[target].record(correct);
      (idle_case ? idle_cases : wrong_cases)[target] += 1;
    }

    for (std::size_t i = 0; i < routine.size(); ++i) {
      std::string measured = "-";
      std::string cases = "-";
      if (i > 0) {
        measured = per_step[i].total() > 0
                       ? util::format_percent(per_step[i].precision())
                       : std::string("(not drawn)");
        cases = std::to_string(idle_cases[i]) + " idle + " +
                std::to_string(wrong_cases[i]) + " wrong";
      }
      table.add_row({adl.name(), routine.step(i).name, i == 0 ? "-" : "100%",
                     measured, cases});
    }

    // ---- beyond the paper: closed-loop fault injection ----------------
    core::SystemConfig config;
    config.seed = 3000;
    core::HomeDeployment system(library, adl, config);
    system.pretrain(datasets.sensed_training_set(adl, 120));

    patient::PatientProfile profile =
        patient::PatientProfile::with_severity("User", 0.0);
    profile.comply_minimal = 1.0;
    profile.comply_specific = 1.0;

    int completed = 0;
    std::size_t prompts = 0;
    util::Rng fault_sampler(99);
    constexpr int kSessions = 20;
    for (int s = 0; s < kSessions; ++s) {
      const std::size_t target =
          1 + fault_sampler.pick_index(routine.size() - 1);
      const bool idle_case = s % 2 == 0;
      adl::ToolId wrong = adl::kNoTool;
      if (!idle_case) {
        const auto tools = adl.tools();
        do {
          wrong = tools[fault_sampler.pick_index(tools.size())];
        } while (wrong == routine.step(target).tool);
      }
      const auto result = system.run_session(
          profile, sim::Duration::minutes(20.0),
          [&](patient::PatientActor& actor) {
            for (std::size_t i = 0; i < target; ++i) {
              actor.force_next_decision(Kind::kStartedStep);
            }
            actor.force_next_decision(
                idle_case ? Kind::kFroze : Kind::kWrongTool, wrong);
          });
      completed += result.completed;
      prompts += result.prompts_total;
    }
    closed_loop.add_row(
        {adl.name(), std::to_string(kSessions),
         std::to_string(completed) + "/" + std::to_string(kSessions),
         util::format_fixed(static_cast<double>(prompts) / kSessions, 1)});
  }

  std::fputs(table.render().c_str(), stdout);
  std::puts(
      "\nNote: like the paper, the first step of each ADL has no entry —\n"
      "prediction starts from the first observed step. (Our extension of\n"
      "training the <idle, idle> context does let the deployed system\n"
      "prompt the first step; see bench_fig1_scenario and DESIGN.md.)\n");
  std::fputs(closed_loop.render().c_str(), stdout);
  return 0;
}
