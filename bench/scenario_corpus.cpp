// Gated scenario regression corpus: every committed tests/scenarios/
// *.scenario plan executed end-to-end through the multi-ADL serving tier
// (serve::run_scenario over four whole-home slots) and reported as exact
// metrics.
//
// Each scenario is one behavioural contract: interleaved ADL segments with
// per-ADL progress resumed within one session, recognition-gated
// switches, caregiver interruptions probing the idle-gap boundary from
// both sides, severity drift, compliance decay, forced wrong-tool storms.
// The per-scenario metric block (sessions, completions, prompts, praises,
// recoveries, switches, idle closes, pool residency, hexfloat derived
// rates, checksum) is byte-identical at any --jobs — run_scenario runs
// one trial per slot and every source of variation derives from the
// plan's one seed.
//
// Wall-clock goes only to --timing-json (BENCH_scenarios.json), where
// tools/check_bench_regression.py EXACT-gates every counter and the
// checksum per (scenario, jobs): any metric moving by 1 is a behaviour
// change, not noise.
//
// Usage:
//   bench_scenario_corpus [--dir=tests/scenarios] [--jobs=N]
//       [--timing-json=BENCH_scenarios.json]

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "exec/trial_runner.hpp"
#include "serve/scenario_runner.hpp"
#include "util/flags.hpp"

#ifndef COREDA_SCENARIO_DIR
#define COREDA_SCENARIO_DIR "tests/scenarios"
#endif

namespace {

using namespace coreda;

std::string metrics_json(const serve::ScenarioSummary& sum) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "\"sessions\": %llu, \"completed_sessions\": %llu, "
      "\"segments\": %llu, \"segments_completed\": %llu, "
      "\"prompts\": %llu, \"praises\": %llu, "
      "\"wrong_tool_recoveries\": %llu, \"segment_switches\": %llu, "
      "\"idle_episodes\": %llu, \"pool_hits\": %llu, \"pool_swaps\": %llu, "
      "\"rejected_bundles\": %llu, \"checksum\": %llu",
      static_cast<unsigned long long>(sum.sessions),
      static_cast<unsigned long long>(sum.completed_sessions),
      static_cast<unsigned long long>(sum.segments),
      static_cast<unsigned long long>(sum.segments_completed),
      static_cast<unsigned long long>(sum.prompts),
      static_cast<unsigned long long>(sum.praises),
      static_cast<unsigned long long>(sum.wrong_tool_recoveries),
      static_cast<unsigned long long>(sum.segment_switches),
      static_cast<unsigned long long>(sum.idle_episodes),
      static_cast<unsigned long long>(sum.pool_hits),
      static_cast<unsigned long long>(sum.pool_swaps),
      static_cast<unsigned long long>(sum.rejected_records),
      static_cast<unsigned long long>(sum.checksum));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parse(argc, argv);
  const std::size_t jobs = exec::jobs_from_flags(flags);
  const std::string dir = flags.get("dir").empty() ? COREDA_SCENARIO_DIR
                                                   : flags.get("dir");
  const std::string timing_json = flags.get("timing-json");

  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".scenario") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::fprintf(stderr, "scenario corpus: no *.scenario files in %s\n",
                 dir.c_str());
    return 2;
  }

  // Where the plans came from and the job count go to stderr: stdout is
  // the same for any checkout and any --jobs.
  std::fprintf(stderr, "scenario corpus: plans from %s (jobs=%zu)\n",
               dir.c_str(), jobs);
  std::printf("Scenario corpus: %zu plans\n\n", files.size());

  bool all_parsed = true;
  for (const std::filesystem::path& file : files) {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "scenario corpus: cannot read %s\n",
                   file.string().c_str());
      all_parsed = false;
      continue;
    }
    const sim::ScenarioPlan plan = sim::ScenarioPlan::parse(in);
    const exec::Stopwatch watch;
    const serve::ScenarioSummary sum = serve::run_scenario(plan, jobs);
    const double seconds = watch.seconds();
    std::fputs(
        serve::format_scenario_report(file.stem().string(), plan, sum)
            .c_str(),
        stdout);
    std::printf("\n");
    exec::append_timing_record(timing_json,
                               "scenario/" + file.stem().string(), jobs,
                               sum.sessions, seconds, metrics_json(sum));
  }
  return all_parsed ? 0 : 2;
}
