#include "core/scenario.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "core/home.hpp"
#include "trace/dataset.hpp"
#include "util/table.hpp"

namespace coreda::core {

ScenarioPlayer::ScenarioPlayer(const adl::AdlLibrary& library,
                               SystemConfig config)
    : library_(&library), config_(std::move(config)) {}

std::vector<ScenarioEvent> ScenarioPlayer::play_figure1(std::ostream* out) {
  const adl::Adl& tea = library_->tea_making();
  HomeDeployment system(*library_, tea, config_);

  // Learn Mr. Tanaka's routine from clean recorded processes first, as the
  // paper does before deployment.
  trace::DatasetBuilder datasets(*library_,
                                 patient::PatientProfile::with_severity(
                                     config_.user_name, 0.0),
                                 config_.seed + 1);
  const auto training = datasets.clean_training_set(tea, 120);
  system.pretrain(training);

  // A mildly impaired profile; the script below forces the Figure 1 error
  // pattern regardless of the stochastic error rates.
  patient::PatientProfile profile =
      patient::PatientProfile::with_severity(config_.user_name, 0.4);
  profile.comply_minimal = 1.0;
  profile.comply_specific = 1.0;

  system.run_session_inplace(
      profile, sim::Duration::minutes(10.0),
      [](patient::PatientActor& actor) {
        using Kind = patient::PatientEvent::Kind;
        actor.force_next_decision(Kind::kStartedStep);  // tea box
        actor.force_next_decision(Kind::kWrongTool,
                                  adl::tools::kTeaCup);  // cup instead of pot
        actor.force_next_decision(Kind::kStartedStep);   // kettle
        actor.force_next_decision(Kind::kFroze);         // forgets to drink
      },
      result_);

  // Merge patient events and reminder deliveries into one timeline.
  std::vector<ScenarioEvent> timeline;
  const auto describe_tool = [this](adl::ToolId id) {
    return library_->tools().at(id).name;
  };

  const patient::PatientActor* actor = system.last_actor();
  for (const patient::PatientEvent& ev : actor->events()) {
    std::ostringstream os;
    using Kind = patient::PatientEvent::Kind;
    switch (ev.kind) {
      case Kind::kStartedStep:
        os << "patient starts using " << describe_tool(ev.tool);
        break;
      case Kind::kWrongTool:
        os << "patient incorrectly takes " << describe_tool(ev.tool);
        break;
      case Kind::kFroze:
        os << "patient does nothing (forgets the next step)";
        break;
      case Kind::kCompliedPrompt:
        os << "patient follows the prompt toward "
           << describe_tool(ev.tool);
        break;
      case Kind::kIgnoredPrompt:
        os << "patient does not notice the prompt";
        break;
      case Kind::kFinishedAdl:
        os << "ADL complete (" << describe_tool(ev.tool) << " was the last "
           << "step)";
        break;
    }
    timeline.push_back(ScenarioEvent{ev.at, os.str()});
  }

  for (const reminding::DeliveredReminder& r : system.reminder().log()) {
    std::ostringstream os;
    os << "CoReDA reminds (" << to_string(r.trigger) << ", "
       << planning::to_string(r.level) << "): \"" << r.text << "\" + picture "
       << r.picture << " + green LED x" << static_cast<int>(r.green_blinks)
       << " on " << describe_tool(r.target_tool);
    if (r.wrong_tool) {
      os << " + red LED x" << static_cast<int>(r.red_blinks) << " on "
         << describe_tool(*r.wrong_tool);
    }
    timeline.push_back(ScenarioEvent{r.at, os.str()});
  }

  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const ScenarioEvent& a, const ScenarioEvent& b) {
                     return a.at < b.at;
                   });

  if (out != nullptr) {
    for (const ScenarioEvent& ev : timeline) {
      *out << "[" << util::format_fixed(ev.at.to_seconds(), 1) << "s] "
           << ev.description << '\n';
    }
  }
  return timeline;
}

}  // namespace coreda::core
