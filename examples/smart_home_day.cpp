// A day in an instrumented home — the multi-ADL deployment.
//
// Every tool in the house carries a PAVENET node on one shared radio. The
// resident moves through their day (tooth-brushing in the morning, tea in
// the afternoon, hand-washing before dinner, dressing in between); the
// HomeDeployment recognizes each activity from the usage stream, routes
// StepIDs to that activity's learned planner, and assists — optionally
// primed by the care plan's schedule hints.

#include <cstdio>

#include "core/home.hpp"

int main() {
  using namespace coreda;

  adl::AdlLibrary library;
  core::SystemConfig config;
  config.user_name = "Sato";
  config.seed = 2026;

  std::puts("Deploying nodes on every tool and training per-ADL planners"
            " (120 sensed episodes each)...");
  core::HomeDeployment home(library, config);
  home.pretrain(120, 2027);
  std::printf("Recognizer knows %zu activities.\n\n",
              home.recognizer().known_adls());

  patient::PatientProfile profile =
      patient::PatientProfile::with_severity("Sato", 0.5);
  profile.comply_minimal = 0.9;
  profile.comply_specific = 1.0;

  struct PlannedActivity {
    const char* when;
    const char* adl;
    const char* hint;  // the care plan's expectation ("" = none)
  };
  const PlannedActivity day[] = {
      {"07:30", "Tooth-brushing", "Tooth-brushing"},
      {"08:10", "Dressing", ""},
      {"14:00", "Tea-making", "Tea-making"},
      {"18:30", "Hand-washing", "Hand-washing"},  // pre-dinner care plan
      {"21:45", "Tooth-brushing", "Tooth-brushing"},
  };

  int completed = 0;
  int recognized = 0;
  for (const PlannedActivity& planned : day) {
    // Idle home time before the activity.
    home.scheduler().run_for(sim::Duration::minutes(45.0));

    const core::SessionResult result = home.run_session(
        planned.adl, profile, sim::Duration::minutes(40.0), planned.hint);
    completed += result.completed;
    recognized += result.recognized_correctly;

    std::printf("[%s] %-15s  recognized: %-15s (%zu steps)  %s  "
                "prompts: %zu, praises: %zu\n",
                planned.when, planned.adl,
                result.recognized_adl.empty() ? "(hint only)"
                                              : result.recognized_adl.c_str(),
                result.steps_to_recognition,
                result.completed ? "completed" : "NOT completed",
                result.prompts_total, result.praises);
  }

  std::printf("\nDay summary: %d/5 activities completed, %d/5 recognized "
              "from the usage stream.\n",
              completed, recognized);
  return completed == 5 ? 0 : 1;
}
