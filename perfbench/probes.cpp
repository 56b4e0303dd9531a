#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>

#include "exec/trial_runner.hpp"
#include "pavenet/base_station.hpp"
#include "pavenet/node.hpp"
#include "pavenet/radio.hpp"
#include "planning/lane_trainer.hpp"
#include "recognition/tracker.hpp"
#include "reminding/catalog.hpp"
#include "reminding/reminder.hpp"
#include "sensors/models.hpp"
#include "sensors/world.hpp"
#include "sim/scheduler.hpp"
#include "trace/sensing_pipeline.hpp"

namespace perfbench {

using namespace coreda;

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}  // namespace

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t double_bits(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - std::floor(pos));
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

std::unique_ptr<serve::SegmentStore> open_store(
    const planning::RoutineLearner& donor,
    const serve::SegmentStoreParams& params) {
  return std::make_unique<serve::SegmentStore>(
      donor.state_codec().symbols(), donor.action_codec().tools(),
      donor.q().num_states(), donor.q().num_actions(), params);
}

SeededStore seed_and_reopen(const planning::RoutineLearner& donor,
                            const serve::SegmentStoreParams& params,
                            std::size_t users, std::size_t reserve) {
  std::error_code ec;
  std::filesystem::remove_all(params.dir, ec);
  {
    auto seeding = open_store(donor, params);
    seeding->reserve_users(reserve);
    for (std::uint64_t u = 0; u < users; ++u) seeding->append(u, donor.q(), 1);
  }
  SeededStore s;
  const Clock::time_point t0 = Clock::now();
  s.store = open_store(donor, params);
  s.reopen_ms = seconds_between(t0, Clock::now()) * 1e3;
  s.store->reserve_users(reserve);
  return s;
}

StoreCounters StoreCounters::of(const serve::SegmentStore& store) {
  return {store.appends(), store.appended_bytes(),
          store.anchor_records_written(), store.delta_records_written(),
          store.compactions()};
}

StoreCounters StoreCounters::operator-(const StoreCounters& o) const {
  return {appends - o.appends, bytes - o.bytes, anchors - o.anchors,
          deltas - o.deltas, compactions - o.compactions};
}

StoreCounters& StoreCounters::operator+=(const StoreCounters& o) {
  appends += o.appends;
  bytes += o.bytes;
  anchors += o.anchors;
  deltas += o.deltas;
  compactions += o.compactions;
  return *this;
}

void StoreCounters::fill(Layers& L) const {
  L["serve.bytes_per_append"] =
      appends > 0 ? static_cast<double>(bytes) / static_cast<double>(appends)
                  : kNaN;
  L["serve.delta_share"] =
      anchors + deltas > 0
          ? static_cast<double>(deltas) / static_cast<double>(anchors + deltas)
          : kNaN;
  L["serve.compactions"] = static_cast<double>(compactions);
}

void train_lockstep(planning::LaneTrainer& trainer,
                    const Transcripts& transcripts,
                    const std::uint64_t (&keys)[kWidth], LockstepStats* stats) {
  const auto trained = [&trainer] {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < kWidth; ++i) n += trainer.episodes_trained(i);
    return n;
  };
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    for (std::size_t t = 0; t < kRing; ++t) {
      for (std::size_t i = 0; i < kWidth; ++i) {
        trainer.queue_episode(
            i, transcripts[fold(keys[i], t) % transcripts.size()]);
      }
      if (stats == nullptr) {
        trainer.train_queued();
        continue;
      }
      const std::uint64_t before = trained();
      const Clock::time_point t0 = Clock::now();
      trainer.train_queued();
      stats->train_s += seconds_between(t0, Clock::now());
      ++stats->calls;
      stats->episodes += trained() - before;
    }
  }
}

LockstepStats probe_retrain(const adl::Adl& adl, const rl::QTable& start,
                            const Transcripts& transcripts, std::size_t users,
                            std::uint64_t seed) {
  planning::LaneTrainer trainer(adl, kWidth, planning::LearnerConfig(), 64);
  LockstepStats stats;
  for (std::size_t base = 0; base < users; base += kWidth) {
    std::uint64_t keys[kWidth];
    for (std::size_t i = 0; i < kWidth; ++i) {
      keys[i] = fold(seed, base + i);
      trainer.begin_retraining(i, start,
                               util::Rng(exec::trial_seed(seed, base + i)));
    }
    train_lockstep(trainer, transcripts, keys, &stats);
  }
  return stats;
}

recognition::ActivityTracker::Params switching_tracker() {
  recognition::ActivityTracker::Params params;
  params.switch_window = 2;
  params.switch_threshold = 0.8;
  params.switch_patience = 1;
  return params;
}

double user_severity(std::uint64_t seed, std::uint64_t user) {
  util::Rng rng(exec::trial_seed(seed, user));
  return 0.1 + 0.4 * rng.uniform();
}

std::vector<patient::TimedStep> timed_from_script(
    const adl::AdlLibrary& library, const core::SessionScript& script,
    const patient::PatientProfile& profile, util::Rng& rng) {
  std::vector<patient::TimedStep> out;
  std::map<std::string, std::size_t> progress;
  sim::Duration carry{};
  for (const core::ScriptPart& part : script.parts) {
    if (part.adl.empty()) {
      carry += part.pause;
      continue;
    }
    const adl::Adl& adl = library.by_name(part.adl);
    patient::BehaviorGenerator gen(adl, library.tools(), profile, rng.fork());
    const std::vector<patient::TimedStep> episode = gen.timed_episode();
    const std::size_t from =
        part.resume ? std::min(progress[part.adl], episode.size()) : 0;
    const std::size_t to = part.steps == 0
                               ? episode.size()
                               : std::min(from + part.steps, episode.size());
    // A frozen resident waits out roughly one idle timeout per freeze.
    carry += sim::Duration::seconds(20.0) * static_cast<double>(part.freeze);
    const std::vector<adl::Tool>& all = library.tools().tools();
    for (std::size_t k = 0; k < part.wrong_tool; ++k) {
      adl::ToolId wrong = part.wrong_tool_id;
      const std::vector<adl::ToolId> own = adl.tools();
      while (wrong == adl::kNoTool ||
             std::find(own.begin(), own.end(), wrong) != own.end()) {
        wrong = all[rng.pick_index(all.size())].id;
      }
      const adl::Tool& tool = library.tools().at(wrong);
      out.push_back({wrong, carry + profile.think_mean,
                     tool.typical_usage_mean});
      carry = sim::Duration{};
    }
    for (std::size_t i = from; i < to; ++i) {
      patient::TimedStep step = episode[i];
      step.think += carry;
      carry = sim::Duration{};
      out.push_back(step);
    }
    progress[part.adl] = to;
  }
  return out;
}

Transcripts make_transcripts(const adl::AdlLibrary& library,
                             const adl::Adl& adl, std::size_t count,
                             std::uint64_t seed) {
  Transcripts out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto profile = patient::PatientProfile::with_severity(
        "T", user_severity(seed, i));
    patient::BehaviorGenerator gen(adl, library.tools(), profile,
                                   util::Rng(exec::trial_seed(seed ^ 0x7ad, i)));
    out.push_back(gen.noisy_steps());
  }
  return out;
}

recognition::AdlRecognizer train_recognizer(const adl::AdlLibrary& library,
                                            std::uint64_t seed) {
  recognition::AdlRecognizer recognizer;
  std::uint64_t k = 0;
  for (const adl::Adl& adl : library.adls()) {
    for (const auto& steps : make_transcripts(library, adl, 60, seed + ++k)) {
      recognizer.train(adl.name(), steps);
    }
  }
  return recognizer;
}

namespace {

/// Activity-callback sink for the standalone tracker.
struct Announcements {
  const std::string* last = nullptr;
  void on_activity(const std::string& adl, sim::TimePoint /*at*/) {
    last = &adl;
  }
};

/// What one session's node stack did, read from its own counters.
struct NodeWork {
  std::uint64_t samples = 0;  ///< PavenetNode::samples, summed over nodes
  std::uint64_t events = 0;   ///< Scheduler::run_until's fired count
  double node_s = 0.0;        ///< virtual seconds x nodes
  double active_s = 0.0;      ///< manipulated seconds
};

/// Replays one session's manipulations on a node stack of every
/// instrumented tool, built from the pavenet layer's public classes as
/// SensingPipeline::run builds it, for the session's virtual span (at
/// least the script's own length).
NodeWork node_work(const adl::ToolRegistry& tools,
                   const std::vector<adl::ToolId>& instrumented,
                   const ProbeSession& s, util::Rng& seeder) {
  sim::Scheduler scheduler;
  sensors::ManipulationWorld world;
  pavenet::RadioChannel channel(scheduler, seeder.fork());
  pavenet::BaseStation station(scheduler, channel);
  std::vector<std::unique_ptr<pavenet::PavenetNode>> nodes;
  for (const adl::ToolId id : instrumented) {
    nodes.push_back(std::make_unique<pavenet::PavenetNode>(
        tools.at(id), scheduler, world, channel, seeder.fork()));
    nodes.back()->power_on();
  }
  NodeWork w;
  sim::TimePoint cursor = sim::TimePoint::origin();
  for (const patient::TimedStep& step : s.script) {
    cursor = cursor + step.think;
    const sim::TimePoint start = cursor;
    scheduler.schedule_at(start, [&world, tool = step.tool, start,
                                  duration = step.manipulation] {
      world.begin(tool, start, duration);
    });
    cursor = cursor + step.manipulation;
    w.active_s += step.manipulation.to_seconds();
  }
  const sim::Duration span = std::max(cursor - sim::TimePoint::origin(), s.span);
  w.events = scheduler.run_until(sim::TimePoint::origin() + span);
  for (auto& node : nodes) {
    node->power_off();
    w.samples += node->samples();
  }
  w.node_s = span.to_seconds() * static_cast<double>(nodes.size());
  return w;
}

/// Mean ns per sample of SensorModel::sample_block over 10-sample windows
/// whose idle/active mix matches `idle_share`, across the instrumented
/// tools' sensor kinds.
double sensor_ns_per_sample(const adl::ToolRegistry& tools,
                            const std::vector<adl::ToolId>& instrumented,
                            double idle_share, std::uint64_t seed) {
  constexpr std::size_t kWindow = 10;
  constexpr std::size_t kWindowsPerTool = 20000;
  util::Rng mix_rng(seed);
  util::Rng rng(seed + 1);
  double activations[kWindow];
  double out[kWindow];
  double sink = 0.0;
  double seconds = 0.0;
  std::uint64_t samples = 0;
  for (const adl::ToolId id : instrumented) {
    const adl::Tool& tool = tools.at(id);
    const std::unique_ptr<sensors::SensorModel> model =
        sensors::make_sensor_model(tool.sensor);
    sim::TimePoint t = sim::TimePoint::origin();
    const sim::Duration step = sim::Duration::millis(100);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t w = 0; w < kWindowsPerTool; ++w) {
      const double level = mix_rng.uniform() < idle_share ? 0.0 : 1.0;
      for (std::size_t i = 0; i < kWindow; ++i) activations[i] = level;
      model->sample_block(t, step, activations, kWindow,
                          tool.usage_intensity, rng, out);
      sink += out[kWindow - 1];
      t = t + sim::Duration::seconds(1.0);
    }
    seconds += seconds_between(t0, Clock::now());
    samples += kWindowsPerTool * kWindow;
  }
  if (std::isnan(sink)) return kNaN;  // keeps `sink` observable
  return seconds * 1e9 / static_cast<double>(samples);
}

/// ns per event of a standalone scheduler running one periodic firmware
/// task (one wake per 1 s vote window) per instrumented tool.
double scheduler_ns_per_event(std::size_t nodes) {
  constexpr std::size_t kEvents = 2000000;
  sim::Scheduler scheduler;
  std::uint64_t fired = 0;
  for (std::size_t n = 0; n < nodes; ++n) {
    scheduler.schedule_periodic(
        sim::Duration::seconds(1.0) + sim::Duration::millis(static_cast<std::int64_t>(n)),
        [&fired] { ++fired; });
  }
  const Clock::time_point t0 = Clock::now();
  const std::size_t ran = scheduler.run(kEvents);
  const double seconds = seconds_between(t0, Clock::now());
  return fired == ran ? seconds * 1e9 / static_cast<double>(ran) : kNaN;
}

/// ns per RemindingSubsystem::remind over the sessions' ADL tools, both
/// trigger kinds and both levels; downlink frames drain outside the span.
double remind_ns(const adl::AdlLibrary& library,
                 const std::vector<ProbeSession>& sessions,
                 std::uint64_t seed) {
  constexpr std::size_t kBatches = 2000;
  constexpr std::size_t kPerBatch = 32;
  sim::Scheduler scheduler;
  pavenet::RadioChannel channel(scheduler, util::Rng(seed));
  pavenet::BaseStation station(scheduler, channel);
  reminding::RemindingSubsystem reminder(station, library.tools(),
                                         reminding::MessageCatalog("U"));
  std::vector<adl::ToolId> targets;
  for (const ProbeSession& s : sessions) {
    for (const adl::ToolId t : library.by_name(s.adl).tools()) {
      targets.push_back(t);
    }
  }
  if (targets.empty()) return kNaN;
  double seconds = 0.0;
  std::size_t k = 0;
  for (std::size_t b = 0; b < kBatches; ++b) {
    reminder.begin_session();
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < kPerBatch; ++i, ++k) {
      const adl::ToolId target = targets[k % targets.size()];
      const bool wrong = (k & 1) != 0;
      reminder.remind(scheduler.now(),
                      wrong ? reminding::Trigger::kWrongTool
                            : reminding::Trigger::kIdleTimeout,
                      target,
                      (k & 2) != 0 ? planning::RemindingLevel::kSpecific
                                   : planning::RemindingLevel::kMinimal,
                      wrong ? std::optional<adl::ToolId>(
                                  targets[(k + 1) % targets.size()])
                            : std::nullopt);
    }
    seconds += seconds_between(t0, Clock::now());
    scheduler.run();
  }
  return seconds * 1e9 / static_cast<double>(kBatches * kPerBatch);
}

}  // namespace

SessionProbe probe_sessions(const ProbeInputs& in) {
  SessionProbe p;
  const adl::AdlLibrary& library = *in.library;
  const double n = static_cast<double>(in.sessions.size());

  // Sensing stack (firmware vote, radio, base station) on each session's
  // manipulations; then the same manipulations on a node stack run for the
  // session's virtual span, whose counters give the node and scheduler work.
  trace::SensingPipeline pipeline(library.tools(), in.instrumented, in.seed);
  util::Rng seeder(in.seed ^ 0x5eed);
  std::vector<std::vector<adl::StepId>> streams;
  streams.reserve(in.sessions.size());
  double sensing_s = 0.0;
  std::uint64_t sent = 0, delivered = 0, events = 0;
  NodeWork work;
  for (const ProbeSession& s : in.sessions) {
    const Clock::time_point t0 = Clock::now();
    trace::SensedResult sensed = pipeline.run(s.script);
    sensing_s += seconds_between(t0, Clock::now());
    sent += sensed.radio.sent;
    delivered += sensed.radio.delivered;
    events += sensed.extracted.size();
    streams.push_back(std::move(sensed.extracted));
    const NodeWork w = node_work(library.tools(), in.instrumented, s, seeder);
    work.samples += w.samples;
    work.events += w.events;
    work.node_s += w.node_s;
    work.active_s += w.active_s;
  }
  p.sensing_us = sensing_s * 1e6 / n;
  p.frames = static_cast<double>(sent) / n;
  p.frame_loss_share =
      sent > 0 ? static_cast<double>(sent - delivered) / static_cast<double>(sent)
               : 0.0;
  p.usage_events = static_cast<double>(events) / n;
  p.samples = static_cast<double>(work.samples) / n;
  p.events = static_cast<double>(work.events) / n;
  p.idle_sample_share = work.node_s > 0.0 ? 1.0 - work.active_s / work.node_s : 1.0;
  p.ns_per_sample = sensor_ns_per_sample(library.tools(), in.instrumented,
                                         p.idle_sample_share, in.seed);
  p.sim_ns_per_event = scheduler_ns_per_event(in.instrumented.size());

  // Recognition: the sensed streams through a switching tracker, 10 s apart.
  {
    Announcements sink;
    recognition::ActivityTracker tracker(
        *in.recognizer,
        recognition::ActivityTracker::ActivityCallback::bind<
            &Announcements::on_activity>(&sink),
        switching_tracker());
    double seconds = 0.0;
    std::uint64_t observed = 0, correct = 0;
    sim::TimePoint at = sim::TimePoint::origin();
    for (std::size_t i = 0; i < streams.size(); ++i) {
      tracker.close_episode();
      sink.last = nullptr;
      const Clock::time_point t0 = Clock::now();
      for (const adl::StepId step : streams[i]) {
        at = at + sim::Duration::seconds(10.0);
        tracker.observe(step, at);
      }
      seconds += seconds_between(t0, Clock::now());
      observed += streams[i].size();
      if (sink.last != nullptr && *sink.last == in.sessions[i].adl) ++correct;
      at = at + sim::Duration::minutes(10.0);
    }
    p.observe_ns =
        observed > 0 ? seconds * 1e9 / static_cast<double>(observed) : kNaN;
    p.tracker_correct_share = static_cast<double>(correct) / n;
    p.tracker_switches = static_cast<double>(tracker.switches()) / n;
  }

  // Planning: the <prev, cur> pairs of each sensed stream through the
  // session's ADL planner, repeated so the span is long enough to time.
  {
    constexpr int kRepeats = 50;
    double seconds = 0.0;
    std::uint64_t calls = 0;
    double sink = 0.0;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      const auto it = in.learners.find(in.sessions[i].adl);
      if (it == in.learners.end() || streams[i].empty()) continue;
      const planning::RoutineLearner& learner = *it->second;
      const Clock::time_point t0 = Clock::now();
      for (int r = 0; r < kRepeats; ++r) {
        adl::StepId prev = adl::kIdleStep;
        for (const adl::StepId cur : streams[i]) {
          if (const auto prompt = learner.predict(prev, cur)) sink += prompt->q;
          prev = cur;
        }
      }
      seconds += seconds_between(t0, Clock::now());
      calls += static_cast<std::uint64_t>(kRepeats) * streams[i].size();
    }
    p.predict_ns = calls > 0 && !std::isnan(sink)
                       ? seconds * 1e9 / static_cast<double>(calls)
                       : kNaN;
  }

  p.remind_ns = remind_ns(library, in.sessions, in.seed);
  return p;
}

StoreProbe probe_store(serve::SegmentStore& store,
                       const std::vector<std::uint64_t>& users) {
  StoreProbe p;
  rl::QTable q(store.num_states(), store.num_actions());
  double load_s = 0.0, append_s = 0.0;
  std::size_t loads = 0, appends = 0;
  for (const std::uint64_t user : users) {
    Clock::time_point t0 = Clock::now();
    const std::optional<std::uint64_t> version = store.load(user, q);
    load_s += seconds_between(t0, Clock::now());
    ++loads;
    if (!version) continue;
    t0 = Clock::now();
    store.append(user, q, *version + 1);
    append_s += seconds_between(t0, Clock::now());
    ++appends;
  }
  constexpr int kProbeRepeats = 20;
  std::uint64_t found = 0;
  const Clock::time_point t0 = Clock::now();
  for (int r = 0; r < kProbeRepeats; ++r) {
    for (const std::uint64_t user : users) {
      found += store.latest_version(user).value_or(0);
    }
  }
  const double probe_s = seconds_between(t0, Clock::now());
  p.load_us = loads > 0 ? load_s * 1e6 / static_cast<double>(loads) : kNaN;
  p.append_us =
      appends > 0 ? append_s * 1e6 / static_cast<double>(appends) : kNaN;
  p.index_probe_ns =
      !users.empty() && found > 0
          ? probe_s * 1e9 / static_cast<double>(users.size() * kProbeRepeats)
          : kNaN;
  return p;
}

double anon_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return std::numeric_limits<double>::quiet_NaN();
  char line[256];
  double kib = std::numeric_limits<double>::quiet_NaN();
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "RssAnon:", 8) == 0) {
      kib = std::strtod(line + 8, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

}  // namespace perfbench
