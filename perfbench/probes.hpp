#pragma once

// Shared helpers of the benchmark program: wall-clock spans, outcome
// digests, percentile maths, store and retrain helpers shared by the
// workloads, and the per-layer probes that replay a workload's inputs
// through each layer's public entry points.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adl/library.hpp"
#include "core/home.hpp"
#include "patient/generator.hpp"
#include "planning/lane_trainer.hpp"
#include "planning/learner.hpp"
#include "recognition/recognizer.hpp"
#include "recognition/tracker.hpp"
#include "serve/segment_store.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// SplitMix64 finalizer: the mixing step of every digest.
std::uint64_t mix64(std::uint64_t x) noexcept;
/// Chains `v` into the running hash `h` (order-dependent within one
/// outcome; outcomes are then summed, which is order-independent).
inline std::uint64_t fold(std::uint64_t h, std::uint64_t v) noexcept {
  return mix64(h ^ mix64(v + 0x9e3779b97f4a7c15ULL));
}
std::uint64_t double_bits(double v) noexcept;

/// Linear-interpolation quantile (numpy's default) of unsorted samples;
/// NaN when empty.
double quantile(std::vector<double> samples, double q);
double mean(const std::vector<double>& samples);

/// Per-layer metrics by name. A value is measured on the workload's own
/// path unless `note` says otherwise: "control: ..." (a probe of a layer
/// the workload does not reach), "derived: ..." (computed from other
/// measurements) or "constant: ..." (fixed by the workload's shape).
struct Layers {
  std::map<std::string, double> value;
  std::map<std::string, std::string> note;

  double& operator[](const std::string& name) { return value[name]; }
  void set(const std::string& name, double v, std::string how) {
    value[name] = v;
    note[name] = std::move(how);
  }
  /// Prefixes `how` to the notes of every listed metric.
  void annotate(const std::vector<std::string>& names, const std::string& how) {
    for (const std::string& name : names) {
      std::string& n = note[name];
      n = n.empty() ? how : how + "; " + n;
    }
  }
};

// ---------------------------------------------------------------------------
// Store helpers.
// ---------------------------------------------------------------------------

std::unique_ptr<coreda::serve::SegmentStore> open_store(
    const coreda::planning::RoutineLearner& donor,
    const coreda::serve::SegmentStoreParams& params);

/// A store seeded with `users` anchors of the donor's table (users 0..n-1,
/// version 1), closed and reopened; the reopen (the scan-on-open) is timed.
struct SeededStore {
  std::unique_ptr<coreda::serve::SegmentStore> store;
  double reopen_ms = 0.0;
};
SeededStore seed_and_reopen(const coreda::planning::RoutineLearner& donor,
                            const coreda::serve::SegmentStoreParams& params,
                            std::size_t users, std::size_t reserve);

/// A store's write counters; they restart with each reopen, so a workload
/// sums or subtracts snapshots.
struct StoreCounters {
  std::uint64_t appends = 0, bytes = 0, anchors = 0, deltas = 0,
                compactions = 0;

  static StoreCounters of(const coreda::serve::SegmentStore& store);
  StoreCounters operator-(const StoreCounters& o) const;
  StoreCounters& operator+=(const StoreCounters& o);
  /// serve.bytes_per_append, serve.delta_share and serve.compactions.
  void fill(Layers& L) const;
};

/// Store-layer probe over `users` of an open store: mean SegmentStore::load
/// and append times (the appended table is the loaded one, at the next
/// version) and the mean latest_version probe.
struct StoreProbe {
  double load_us = 0.0;
  double append_us = 0.0;
  double index_probe_ns = 0.0;
};
StoreProbe probe_store(coreda::serve::SegmentStore& store,
                       const std::vector<std::uint64_t>& users);

// ---------------------------------------------------------------------------
// Lockstep retraining (the RetrainParams default budget).
// ---------------------------------------------------------------------------

constexpr std::size_t kWidth = 8;   ///< lanes (users) per batch
constexpr std::size_t kRing = 8;    ///< transcripts per user
constexpr std::size_t kPasses = 8;  ///< passes over the ring

using Transcripts = std::vector<std::vector<coreda::adl::StepId>>;

/// What train_queued did over some lockstep batches.
struct LockstepStats {
  double train_s = 0.0;        ///< time inside train_queued
  std::uint64_t calls = 0;     ///< train_queued calls
  std::uint64_t episodes = 0;  ///< episodes the lanes report trained
};

/// Replays kPasses x kRing transcripts on every lane of `trainer` (whose
/// lanes are already begun), one episode per lane per train_queued call.
/// Lane i's t-th transcript is transcripts[fold(keys[i], t) % size]. Spans
/// around train_queued are recorded only when `stats` is non-null.
void train_lockstep(coreda::planning::LaneTrainer& trainer,
                    const Transcripts& transcripts,
                    const std::uint64_t (&keys)[kWidth], LockstepStats* stats);

/// The same lockstep retrain, as a control on workloads without a retrain
/// path: `users` in full batches, every lane begun from `start`.
LockstepStats probe_retrain(const coreda::adl::Adl& adl,
                            const coreda::rl::QTable& start,
                            const Transcripts& transcripts, std::size_t users,
                            std::uint64_t seed);

// ---------------------------------------------------------------------------
// Session-level layer probes.
// ---------------------------------------------------------------------------

/// One session's worth of inputs for the session-level layer probes: the
/// scripted manipulations the sensing stack replays, the ADL whose planner
/// predicts, and the virtual time the session lasted (zero: the script's
/// own length).
struct ProbeSession {
  std::vector<coreda::patient::TimedStep> script;
  std::string adl;
  coreda::sim::Duration span;
};

/// Converts a home session script into the timed manipulations its
/// resident performs: each ADL part's routine steps (resumed parts continue
/// where the ADL left off), caregiver pauses and forced freezes as extra
/// think time, and forced wrong-tool grabs as manipulations of another ADL's
/// tool.
std::vector<coreda::patient::TimedStep> timed_from_script(
    const coreda::adl::AdlLibrary& library,
    const coreda::core::SessionScript& script,
    const coreda::patient::PatientProfile& profile, coreda::util::Rng& rng);

/// Inputs and shared models the session-level probes read.
struct ProbeInputs {
  const coreda::adl::AdlLibrary* library = nullptr;
  std::vector<ProbeSession> sessions;
  /// Tools carrying nodes (the deployment's node count is their number).
  std::vector<coreda::adl::ToolId> instrumented;
  /// Planner per ADL name (non-owning).
  std::map<std::string, const coreda::planning::RoutineLearner*> learners;
  const coreda::recognition::AdlRecognizer* recognizer = nullptr;
  std::uint64_t seed = 0;
};

/// What the session-level probes measured (NaN where a probe had nothing to
/// time); the caller combines it with the timed run's own counters.
struct SessionProbe {
  double sensing_us = 0.0;         ///< SensingPipeline::run per session
  double frames = 0.0;             ///< radio frames per session
  double frame_loss_share = 0.0;   ///< (sent - delivered) / sent
  double usage_events = 0.0;       ///< extracted StepIDs per session
  double samples = 0.0;            ///< node samples per session
  double events = 0.0;             ///< scheduler events fired per session
  double idle_sample_share = 0.0;  ///< idle node-time / all node-time
  double ns_per_sample = 0.0;      ///< SensorModel::sample_block
  double sim_ns_per_event = 0.0;   ///< standalone Scheduler
  double observe_ns = 0.0;         ///< ActivityTracker::observe
  double tracker_correct_share = 0.0;
  double tracker_switches = 0.0;   ///< per session
  double predict_ns = 0.0;         ///< RoutineLearner::predict
  double remind_ns = 0.0;          ///< RemindingSubsystem::remind
};

SessionProbe probe_sessions(const ProbeInputs& in);

/// Recognition-gated switching as the serving tier configures it: switch
/// on the second consecutive routine-ordered challenger tool.
coreda::recognition::ActivityTracker::Params switching_tracker();

/// Severity in [0.1, 0.5), a pure function of (seed, user).
double user_severity(std::uint64_t seed, std::uint64_t user);

/// Seed-generated noisy transcripts of `adl` (severities 0.1-0.5).
Transcripts make_transcripts(const coreda::adl::AdlLibrary& library,
                             const coreda::adl::Adl& adl, std::size_t count,
                             std::uint64_t seed);

/// Recognizer trained on seed-generated transcripts of every ADL.
coreda::recognition::AdlRecognizer train_recognizer(
    const coreda::adl::AdlLibrary& library, std::uint64_t seed);

/// Current anonymous resident memory (heap, stacks) of this process in MiB.
double anon_rss_mib();

}  // namespace perfbench
