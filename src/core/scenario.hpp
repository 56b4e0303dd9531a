#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "adl/library.hpp"
#include "core/system.hpp"

namespace coreda::core {

/// One line of a replayed scenario timeline.
struct ScenarioEvent {
  sim::TimePoint at;
  std::string description;
};

/// Replays the paper's Figure 1 tea-making scenario deterministically:
///
///   * Mr. Tanaka puts tea-leaf into the kettle (step 1, correct);
///   * he then incorrectly takes the tea cup — CoReDA prompts for the
///     electronic pot (text + picture + green LED on pot + red LED on cup);
///   * he uses the pot and is praised ("Excellent!");
///   * he pours tea into the cup (step 3, correct);
///   * he does nothing for the waiting period — CoReDA prompts him to drink
///     (text + picture + green LED);
///   * he drinks and is praised; the ADL completes.
///
/// The player pre-trains the planner on clean tea-making processes, runs
/// the closed loop with a scripted decision sequence, and merges patient
/// events, delivered reminders and praises into one timeline.
class ScenarioPlayer {
 public:
  explicit ScenarioPlayer(const adl::AdlLibrary& library,
                          SystemConfig config = SystemConfig());

  /// Runs the scenario. When `out` is non-null, the timeline is printed to
  /// it as it is produced.
  std::vector<ScenarioEvent> play_figure1(std::ostream* out = nullptr);

  /// The session result of the last play (valid after play_figure1()).
  const SessionResult& last_result() const noexcept { return result_; }

 private:
  const adl::AdlLibrary* library_;
  SystemConfig config_;
  SessionResult result_;
};

}  // namespace coreda::core
