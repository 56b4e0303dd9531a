#include "trace/dataset.hpp"

namespace coreda::trace {

DatasetBuilder::DatasetBuilder(const adl::AdlLibrary& library,
                               patient::PatientProfile profile,
                               std::uint64_t seed)
    : library_(&library), profile_(std::move(profile)), rng_(seed) {}

std::vector<std::vector<adl::StepId>> DatasetBuilder::clean_training_set(
    const adl::Adl& adl, std::size_t count) {
  patient::BehaviorGenerator gen(adl, library_->tools(), profile_,
                                 rng_.fork());
  std::vector<std::vector<adl::StepId>> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(gen.clean_steps());
  return out;
}

std::vector<std::vector<adl::StepId>> DatasetBuilder::sensed_training_set(
    const adl::Adl& adl, std::size_t count, exec::TrialRunner& runner,
    const SensingPipeline::Params& params) {
  // The generator forks from the builder's stream before the pipeline's
  // seed is drawn, and its scripts never touch the pipeline's seeder.
  const auto scripts = timed_set(adl, count);
  SensingPipeline pipeline(library_->tools(), adl.tools(), rng_(), params);
  std::vector<std::vector<adl::StepId>> out;
  out.reserve(count);
  for (SensedResult& result : pipeline.run_all(scripts, runner)) {
    out.push_back(std::move(result.extracted));
  }
  return out;
}

std::vector<std::vector<adl::StepId>> DatasetBuilder::sensed_training_set(
    const adl::Adl& adl, std::size_t count,
    const SensingPipeline::Params& params) {
  exec::TrialRunner serial(1);
  return sensed_training_set(adl, count, serial, params);
}

std::vector<std::vector<adl::StepId>>
DatasetBuilder::sensed_training_set_parallel(
    const adl::Adl& adl, std::size_t count, exec::TrialRunner& runner,
    const SensingPipeline::Params& params) {
  // One draw from the builder's stream seeds the whole set, so repeated
  // calls produce fresh-but-reproducible sets just like the serial method.
  const std::uint64_t set_seed = rng_();
  return runner.run(
      count, set_seed,
      [this, &adl, &params](exec::TrialContext& ctx) {
        // Episode-private generator and sensing stack: nothing here touches
        // the builder's stream, so episodes are independent of placement.
        patient::BehaviorGenerator gen(adl, library_->tools(), profile_,
                                       ctx.rng.fork());
        SensingPipeline pipeline(library_->tools(), adl.tools(), ctx.rng(),
                                 params);
        return pipeline.run(gen.timed_episode()).extracted;
      });
}

std::vector<std::vector<patient::TimedStep>> DatasetBuilder::timed_set(
    const adl::Adl& adl, std::size_t count) {
  patient::BehaviorGenerator gen(adl, library_->tools(), profile_,
                                 rng_.fork());
  std::vector<std::vector<patient::TimedStep>> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(gen.timed_episode());
  return out;
}

}  // namespace coreda::trace
