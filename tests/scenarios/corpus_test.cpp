// The committed scenario corpus, exact-gated: every tests/scenarios/
// *.scenario plan runs end-to-end through run_scenario and its full metric
// report is compared byte-for-byte against corpus.golden. Regenerate with
// COREDA_UPDATE_GOLDEN=1 (the test rewrites the file and fails once, so a
// stale golden can never silently pass).
//
// Determinism is gated alongside: each plan runs at jobs=1 and jobs=4 and
// the two reports must be byte-identical — the scenario-level version of
// the TrialRunner contract, across the whole-home slots and run_script.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "serve/scenario_runner.hpp"

namespace coreda::serve {
namespace {

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(COREDA_SCENARIO_DIR)) {
    if (entry.path().extension() == ".scenario") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

sim::ScenarioPlan load_plan(const std::filesystem::path& file) {
  std::ifstream in(file);
  EXPECT_TRUE(in.good()) << file;
  return sim::ScenarioPlan::parse(in);
}

TEST(ScenarioCorpus, HasTheCommittedTenPlans) {
  EXPECT_GE(corpus_files().size(), 10u);
}

TEST(ScenarioCorpus, EveryPlanRoundTripsThroughItsCanonicalForm) {
  for (const std::filesystem::path& file : corpus_files()) {
    const sim::ScenarioPlan plan = load_plan(file);
    std::stringstream canonical;
    plan.save(canonical);
    EXPECT_EQ(sim::ScenarioPlan::parse(canonical), plan) << file;
  }
}

TEST(RunScenario, IsJobsInvariant) {
  sim::ScenarioPlan plan;
  plan.seed = 7;
  plan.users = 3;
  plan.rounds = 2;
  plan.severity = 0.3;
  plan.severity_drift = 0.05;
  plan.compliance_decay = 0.02;
  plan.hint = "Tea-making";
  plan.parts = {sim::ScenarioPart{.adl = "Tea-making", .steps = 2},
                sim::ScenarioPart{.adl = "Tooth-brushing"},
                sim::ScenarioPart{.adl = "Tea-making", .resume = true}};

  const ScenarioSummary serial = run_scenario(plan, 1);
  const ScenarioSummary parallel = run_scenario(plan, 4);

  EXPECT_EQ(serial.sessions, 6u);
  EXPECT_GT(serial.prompts, 0u);
  EXPECT_GT(serial.segment_switches, 0u);
  EXPECT_EQ(serial.rejected_records, 0u);
  // Three users on three of the four slots: each slot's first session is
  // a swap, and round 1 finds every user still resident.
  EXPECT_EQ(serial.pool_swaps, 3u);
  EXPECT_EQ(serial.pool_hits, 3u);
  EXPECT_EQ(serial.checksum, parallel.checksum);
  EXPECT_EQ(serial.prompts, parallel.prompts);
  EXPECT_EQ(serial.completed_sessions, parallel.completed_sessions);
  EXPECT_EQ(serial.wrong_tool_recoveries, parallel.wrong_tool_recoveries);
  EXPECT_EQ(serial.pool_swaps, parallel.pool_swaps);
}

TEST(ScenarioCorpus, ReportsMatchGoldenAndAnyJobsCount) {
  std::string report;
  for (const std::filesystem::path& file : corpus_files()) {
    const sim::ScenarioPlan plan = load_plan(file);
    const std::string name = file.stem().string();
    const std::string serial =
        format_scenario_report(name, plan, run_scenario(plan, 1));
    const std::string parallel =
        format_scenario_report(name, plan, run_scenario(plan, 4));
    // jobs=1 is the pure-serial reference; jobs=4 must reproduce it
    // byte-for-byte (one trial per slot, one seed per plan).
    EXPECT_EQ(serial, parallel) << name;
    report += serial;
    report += '\n';
  }

  const std::string golden_path =
      std::string(COREDA_SCENARIO_DIR) + "/corpus.golden";
  if (std::getenv("COREDA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    out << report;
    FAIL() << "golden rewritten (" << golden_path
           << "); rerun without COREDA_UPDATE_GOLDEN";
  }
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden: " << golden_path;
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(report, expected.str());
}

}  // namespace
}  // namespace coreda::serve
