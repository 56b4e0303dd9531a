// Extension: the system's operating envelope — completion rate over the
// severity x prompt-compliance grid.
//
// The paper evaluates one prototype on its authors; a care facility needs
// to know *for whom* the system works: how impaired can a resident be, and
// how reliably must prompts get through, before assisted completion
// degrades? Each cell runs closed-loop tea-making sessions and reports the
// completion rate.

#include <cstdio>
#include <string>
#include <vector>

#include "core/home.hpp"
#include "exec/trial_runner.hpp"
#include "trace/dataset.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

using namespace coreda;

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parse(argc, argv);
  exec::TrialRunner runner(exec::jobs_from_flags(flags));

  adl::AdlLibrary library;
  constexpr int kSessions = 10;

  // The training set is generated once and shared read-only by every cell;
  // each cell then gets its own freshly pretrained system seeded by
  // (909, cell index), making cells independent of each other and of the
  // job count — a cell's sessions no longer inherit learner state from
  // whichever cells happened to run before it.
  trace::DatasetBuilder datasets(
      library, patient::PatientProfile::with_severity("R", 0.0), 910);
  const auto training = datasets.sensed_training_set(library.tea_making(), 120);

  std::puts("Extension: completion envelope over severity x compliance");
  std::printf("(Tea-making, %d closed-loop sessions per cell; cell value =\n"
              " sessions completed within a 5-minute window — a healthy run takes\n about 1 minute; the budget is the patience a meal schedule allows)\n\n",
              kSessions);

  const double severities[] = {0.2, 0.4, 0.6, 0.8, 1.0};
  const double compliances[] = {1.0, 0.8, 0.6, 0.4, 0.2};
  constexpr std::size_t kGrid = 5;

  const exec::Stopwatch timer;
  const std::vector<int> completions = runner.run(
      kGrid * kGrid, 0, [&](exec::TrialContext& ctx) {
        const double severity = severities[ctx.index / kGrid];
        const double compliance = compliances[ctx.index % kGrid];

        core::SystemConfig config;
        config.seed = exec::trial_seed(909, ctx.index);
        core::HomeDeployment system(library, library.tea_making(), config);
        system.pretrain(training);

        patient::PatientProfile profile =
            patient::PatientProfile::with_severity("R", severity);
        // Sweep the perception channel directly: both levels get through
        // with the same probability, so the sweep isolates perception
        // (escalation still helps by repeating).
        profile.comply_minimal = compliance;
        profile.comply_specific = compliance;

        int completed = 0;
        for (int i = 0; i < kSessions; ++i) {
          completed += system
                           .run_session(profile, sim::Duration::minutes(5.0))
                           .completed;
        }
        return completed;
      });
  exec::append_timing_record(flags.get("timing-json"), "sensitivity",
                             runner.jobs(), kGrid * kGrid, timer.seconds());

  util::TextTable table;
  std::vector<std::string> header{"severity \\ compliance"};
  for (double c : compliances) header.push_back(util::format_fixed(c, 1));
  table.set_header(header);

  for (std::size_t si = 0; si < kGrid; ++si) {
    std::vector<std::string> row{util::format_fixed(severities[si], 1)};
    for (std::size_t ci = 0; ci < kGrid; ++ci) {
      row.push_back(std::to_string(completions[si * kGrid + ci]) + "/" +
                    std::to_string(kSessions));
    }
    table.add_row(row);
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts(
      "\nExpected shape: near-perfect completion across the top-left\n"
      "(mild impairment or reliable prompt perception); degradation grows\n"
      "toward the bottom-right corner where severe error rates meet\n"
      "prompts that rarely get through — the population for whom the\n"
      "paper's system would still need a human caregiver in the loop.");
  return 0;
}
