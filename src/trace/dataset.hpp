#pragma once

#include <vector>

#include "adl/library.hpp"
#include "exec/trial_runner.hpp"
#include "patient/generator.hpp"
#include "patient/profile.hpp"
#include "trace/episode.hpp"
#include "trace/sensing_pipeline.hpp"
#include "util/rng.hpp"

namespace coreda::trace {

/// Builds the paper's datasets (§3): 40 extraction trials per tool
/// (Table 3's "320 samples ... averagely 40 samples for each tool"),
/// 120 training samples per ADL (§3.2) and 30 test samples per ADL (§3.3).
///
/// Every dataset is a pure function of (library, profile, seed), so
/// experiments are reproducible bit-for-bit.
class DatasetBuilder {
 public:
  /// `library` must outlive the builder.
  DatasetBuilder(const adl::AdlLibrary& library,
                 patient::PatientProfile profile, std::uint64_t seed);

  /// Clean StepId sequences straight from the routine (no sensing noise).
  std::vector<std::vector<adl::StepId>> clean_training_set(
      const adl::Adl& adl, std::size_t count);

  /// StepId sequences extracted by the real sensing stack from synthetic
  /// signals — what the paper's planner actually trained on. Sequences may
  /// miss weakly-sensed steps or carry spurious ones. The scripts come from
  /// a generator on the builder's stream and replay through one
  /// SensingPipeline::run_all() batch on `runner`; the set is bit for bit
  /// the same at any runner.jobs(), and the form without a runner is the
  /// 1-job case.
  std::vector<std::vector<adl::StepId>> sensed_training_set(
      const adl::Adl& adl, std::size_t count, exec::TrialRunner& runner,
      const SensingPipeline::Params& params = SensingPipeline::Params());
  std::vector<std::vector<adl::StepId>> sensed_training_set(
      const adl::Adl& adl, std::size_t count,
      const SensingPipeline::Params& params = SensingPipeline::Params());

  /// A different dataset of the same distribution: one generator + sensing
  /// stack per episode, seeded per episode by SplitMix streams from one
  /// draw of the builder's stream. Deterministic at any job count, but not
  /// the set sensed_training_set() returns (fig4's golden is recorded on
  /// this one).
  std::vector<std::vector<adl::StepId>> sensed_training_set_parallel(
      const adl::Adl& adl, std::size_t count, exec::TrialRunner& runner,
      const SensingPipeline::Params& params = SensingPipeline::Params());

  /// Timed episodes (for pipeline and closed-loop experiments).
  std::vector<std::vector<patient::TimedStep>> timed_set(const adl::Adl& adl,
                                                         std::size_t count);

  const patient::PatientProfile& profile() const noexcept { return profile_; }

 private:
  const adl::AdlLibrary* library_;
  patient::PatientProfile profile_;
  util::Rng rng_;
};

}  // namespace coreda::trace
