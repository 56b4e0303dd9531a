#include "trace/sensing_pipeline.hpp"

#include <algorithm>
#include <map>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "pavenet/base_station.hpp"
#include "pavenet/node.hpp"
#include "sensors/world.hpp"
#include "sim/scheduler.hpp"

namespace coreda::trace {

SensingPipeline::SensingPipeline(const adl::ToolRegistry& tools,
                                 std::vector<adl::ToolId> instrumented,
                                 std::uint64_t seed)
    : SensingPipeline(tools, std::move(instrumented), seed, Params{}) {}

SensingPipeline::SensingPipeline(const adl::ToolRegistry& tools,
                                 std::vector<adl::ToolId> instrumented,
                                 std::uint64_t seed, Params params)
    : tools_(&tools),
      instrumented_(std::move(instrumented)),
      seeder_(seed),
      params_(params) {}

SensedResult SensingPipeline::run(
    const std::vector<patient::TimedStep>& script) {
  exec::TrialRunner serial(1);
  return std::move(run_all(std::span(&script, 1), serial).front());
}

std::vector<SensedResult> SensingPipeline::run_all(
    std::span<const std::vector<patient::TimedStep>> scripts,
    exec::TrialRunner& runner) {
  // The serial draw: every run's streams in script order (per run, the
  // channel's, then one per node).
  const std::size_t per_run = 1 + instrumented_.size();
  std::vector<util::Rng> streams(per_run * scripts.size());
  for (util::Rng& stream : streams) stream = seeder_.fork();
  // The parallel replay. Trials ignore their own Rng: every draw a run makes
  // comes from the streams above.
  std::vector<SensedResult> results =
      runner.run(scripts.size(), 0, [&](exec::TrialContext& ctx) {
        return replay(scripts[ctx.index], std::span(streams).subspan(
                                              ctx.index * per_run, per_run));
      });
#if defined(__GLIBC__)
  // Each worker freed its stacks into its own malloc arena, which keeps
  // them resident after the batch; hand the free pages back.
  if (runner.jobs() > 1 && scripts.size() > 1) malloc_trim(0);
#endif
  return results;
}

SensedResult SensingPipeline::replay(
    const std::vector<patient::TimedStep>& script,
    std::span<const util::Rng> streams) const {
  sim::Scheduler scheduler;
  sensors::ManipulationWorld world;
  pavenet::RadioChannel channel(scheduler, streams[0], params_.radio);
  pavenet::BaseStation station(scheduler, channel);

  pavenet::NodeBank nodes(scheduler, world, channel, params_.firmware);
  for (std::size_t i = 0; i < instrumented_.size(); ++i) {
    nodes.add(tools_->at(instrumented_[i]), streams[1 + i]);
  }
  nodes.power_on();

  // Script the manipulations onto the virtual timeline.
  sim::TimePoint cursor = sim::TimePoint::origin();
  std::map<adl::ToolId, std::size_t> scripted;  // tool -> manipulations
  for (const patient::TimedStep& step : script) {
    cursor = cursor + step.think;
    const sim::TimePoint start = cursor;
    scheduler.schedule_at(start, [&world, tool = step.tool, start,
                                  duration = step.manipulation] {
      world.begin(tool, start, duration);
    });
    ++scripted[step.tool];
    cursor = cursor + step.manipulation;
  }

  scheduler.run_until(cursor + params_.drain);

  // Power the nodes down so their periodic ticks cannot outlive this call.
  nodes.power_off();

  SensedResult result;
  result.radio = channel.stats();

  std::map<adl::ToolId, std::size_t> extracted_count;
  for (const pavenet::ToolUsageEvent& ep : station.episodes()) {
    if (result.extracted.empty() || result.extracted.back() != ep.tool) {
      result.extracted.push_back(ep.tool);
    }
    ++extracted_count[ep.tool];
  }

  for (const auto& [tool, n] : scripted) {
    const std::size_t seen = extracted_count.count(tool)
                                 ? extracted_count[tool]
                                 : 0;
    result.missed += seen < n ? n - seen : 0;
  }
  for (const auto& [tool, n] : extracted_count) {
    const std::size_t expected =
        scripted.count(tool) ? scripted[tool] : 0;
    result.spurious += n > expected ? n - expected : 0;
  }
  return result;
}

bool SensingPipeline::single_tool_trial(adl::ToolId tool,
                                        sim::Duration duration) {
  const SensedResult result = run({patient::TimedStep{
      tool, sim::Duration::seconds(1.0), duration}});
  return std::find(result.extracted.begin(), result.extracted.end(), tool) !=
         result.extracted.end();
}

}  // namespace coreda::trace
