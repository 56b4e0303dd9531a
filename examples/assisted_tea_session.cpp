// A full assisted tea-making session — the paper's motivating scenario.
//
// A simulated care recipient with moderate dementia attempts the routine;
// the complete CoReDA stack (PAVENET nodes on every tool, radio, base
// station, TD(lambda) planner, reminding subsystem) watches and intervenes.
// The program prints the interleaved transcript: what the patient did,
// what the system sensed, and every reminder with its modalities.

#include <cstdio>

#include "core/home.hpp"
#include "trace/dataset.hpp"

int main() {
  using namespace coreda;

  adl::AdlLibrary library;
  core::SystemConfig config;
  config.user_name = "Tanaka";
  config.seed = 7;

  core::HomeDeployment coreda(library, library.tea_making(), config);

  // Learn Mr. Tanaka's routine from sensed recordings first.
  trace::DatasetBuilder datasets(
      library, patient::PatientProfile::with_severity("Tanaka", 0.0), 11);
  coreda.pretrain(datasets.sensed_training_set(library.tea_making(), 120));
  std::printf("Planner trained: policy accuracy %.0f%%\n\n",
              coreda.learner().greedy_accuracy() * 100.0);

  // A moderately impaired patient: freezes or grabs wrong tools at times,
  // but responds to prompts.
  patient::PatientProfile profile =
      patient::PatientProfile::with_severity("Tanaka", 0.6);
  profile.comply_specific = 1.0;
  profile.comply_minimal = 0.9;

  const core::SessionResult result =
      coreda.run_session(profile, sim::Duration::minutes(30.0));

  std::puts("--- patient transcript ---");
  for (const patient::PatientEvent& ev : coreda.last_actor()->events()) {
    std::printf("[%7.1fs] %-16s", ev.at.to_seconds(),
                std::string(to_string(ev.kind)).c_str());
    if (ev.tool != adl::kNoTool) {
      std::printf(" %s", library.tools().at(ev.tool).name.c_str());
    }
    std::puts("");
  }

  std::puts("\n--- reminders delivered ---");
  for (const reminding::DeliveredReminder& r : coreda.reminder().log()) {
    std::printf("[%7.1fs] %-12s %-8s \"%s\" (green LED x%d on %s",
                r.at.to_seconds(), std::string(to_string(r.trigger)).c_str(),
                planning::to_string(r.level).c_str(), r.text.c_str(),
                static_cast<int>(r.green_blinks),
                library.tools().at(r.target_tool).name.c_str());
    if (r.wrong_tool) {
      std::printf(", red LED x%d on %s", static_cast<int>(r.red_blinks),
                  library.tools().at(*r.wrong_tool).name.c_str());
    }
    std::puts(")");
  }

  std::puts("\n--- session result ---");
  std::printf("completed: %s in %.0f s\n", result.completed ? "yes" : "no",
              result.elapsed.to_seconds());
  std::printf("steps completed: %zu/4\n", result.steps_completed);
  std::printf("prompts: %zu total (%zu idle, %zu wrong-tool; %zu minimal, "
              "%zu specific), %zu praises\n",
              result.prompts_total, result.prompts_idle,
              result.prompts_wrong_tool, result.prompts_minimal,
              result.prompts_specific, result.praises);
  std::printf("radio: %llu frames sent, %.1f%% delivered\n",
              static_cast<unsigned long long>(coreda.channel().stats().sent),
              coreda.channel().stats().delivery_ratio() * 100.0);
  return result.completed ? 0 : 1;
}
