#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "adl/tool.hpp"
#include "exec/trial_runner.hpp"
#include "patient/generator.hpp"
#include "pavenet/node_config.hpp"
#include "pavenet/radio.hpp"
#include "trace/episode.hpp"

namespace coreda::trace {

/// Outcome of pushing one scripted episode through the full sensing stack
/// (synthetic signals -> PAVENET firmware -> radio -> base station).
struct SensedResult {
  /// The StepId sequence the server extracted, in arrival order with
  /// consecutive duplicates collapsed.
  std::vector<adl::StepId> extracted;
  /// Scripted manipulations that produced no usage episode (detector or
  /// radio misses — the complement of Table 3's extract precision).
  std::size_t missed = 0;
  /// Extracted usage episodes for tools that were never manipulated
  /// (accidental-bump false positives surviving the vote).
  std::size_t spurious = 0;
  pavenet::ChannelStats radio;
};

/// Drives a complete, isolated sensing stack for offline experiments.
///
/// Each run builds a fresh scheduler, world, radio channel, base station and
/// one node per instrumented tool, replays the scripted manipulations, and
/// reports what the server saw. Runs are deterministic in (seed, script).
///
/// A run reads the pipeline's seeder only through the streams it forks at
/// its start (the channel's, then one per instrumented node), so once those
/// are drawn in order, runs are independent and may run in parallel.
class SensingPipeline {
 public:
  struct Params {
    pavenet::FirmwareConfig firmware{};
    pavenet::RadioChannel::Params radio{};
    /// Idle air time appended after the last manipulation so trailing
    /// detector windows and packets drain.
    sim::Duration drain = sim::Duration::seconds(3.0);
  };

  /// `tools` must outlive the pipeline. `instrumented` lists the tools that
  /// carry nodes (normally all tools of the deployment).
  SensingPipeline(const adl::ToolRegistry& tools,
                  std::vector<adl::ToolId> instrumented,
                  std::uint64_t seed);
  SensingPipeline(const adl::ToolRegistry& tools,
                  std::vector<adl::ToolId> instrumented, std::uint64_t seed,
                  Params params);

  /// Replays `script` (think/manipulation pairs, sequentially) through a
  /// fresh stack: the one-script case of run_all().
  SensedResult run(const std::vector<patient::TimedStep>& script);

  /// Replays each script through its own fresh stack and returns the
  /// results in script order. Every run's streams are forked from the
  /// seeder in script order first; the stacks then run as `runner` trials.
  /// At any runner.jobs() the results, and the seeder's state after, are
  /// bit for bit those of successive run() calls.
  std::vector<SensedResult> run_all(
      std::span<const std::vector<patient::TimedStep>> scripts,
      exec::TrialRunner& runner);

  /// Single-tool trial for the Table 3 experiment: one manipulation of
  /// `tool` lasting `duration`; returns true when the server extracted it.
  bool single_tool_trial(adl::ToolId tool, sim::Duration duration);

  const Params& params() const noexcept { return params_; }

 private:
  /// Builds a stack on `streams` (the channel's, then one per instrumented
  /// node), replays `script` and reports. Reads only const state, so runs
  /// may overlap.
  SensedResult replay(const std::vector<patient::TimedStep>& script,
                      std::span<const util::Rng> streams) const;

  const adl::ToolRegistry* tools_;
  std::vector<adl::ToolId> instrumented_;
  util::Rng seeder_;
  Params params_;
};

}  // namespace coreda::trace
