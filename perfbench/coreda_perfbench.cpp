// CoReDA benchmark program: runs one workload as a closed loop for a fixed
// wall time, checks its outcome digest against a 1-worker replay of a short
// prefix, and prints one JSON line with every measurement. perfbench/run.py
// builds this program, runs it and formats the result.
//
//   coreda_perfbench --workload=home_scenarios|fleet_zipf|nightly_retrain
//                    --seed=N --seconds=S --trace=0|1 --workers=W --dir=D
//
// Every number is timed here, around calls into the libraries' public
// APIs; nothing is timed inside src/. With --trace=1 the run also records
// spans around each layer's calls and replays the timed run's inputs
// through the layers reached only inside a session (see probes.hpp).

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "adl/library.hpp"
#include "core/home.hpp"
#include "core/system.hpp"
#include "exec/trial_runner.hpp"
#include "planning/lane_trainer.hpp"
#include "probes.hpp"
#include "rl/lane_kernels.hpp"
#include "serve/arrivals.hpp"
#include "serve/fleet_engine.hpp"
#include "serve/segment_store.hpp"
#include "util/latency_histogram.hpp"

namespace {

using namespace coreda;
using namespace perfbench;
namespace fs = std::filesystem;

/// Fixed shard count: users map to shards statically, so outcomes are the
/// same at any worker count <= kShards.
constexpr std::size_t kShards = 4;
/// Set-ups per run; setup_s is their median. The first one serves the
/// 1-worker prefix replay, the last one the timed run.
constexpr std::size_t kSetups = 9;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t workers = 1;
  std::string dir;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::invalid_argument("expected --key=value, got " + arg);
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      a.workload = value;
    } else if (key == "seed") {
      a.seed = std::stoull(value);
    } else if (key == "seconds") {
      a.seconds = std::stod(value);
    } else if (key == "trace") {
      a.trace = value == "1";
    } else if (key == "workers") {
      a.workers = std::stoul(value);
    } else if (key == "dir") {
      a.dir = value;
    } else {
      throw std::invalid_argument("unknown flag --" + key);
    }
  }
  if (a.dir.empty() || a.workers == 0 || a.workers > kShards ||
      !(a.seconds > 0.0)) {
    throw std::invalid_argument("need --dir, 1 <= --workers <= 4, --seconds > 0");
  }
  return a;
}

/// Flat JSON object writer; NaN and infinities become null.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[40];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    return raw(key, buf);
  }
  Json& integer(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  Json& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& object(const std::string& key, const Json& o) {
    return raw(key, o.dump());
  }
  std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  Json& raw(const std::string& key, std::string value) {
    fields_.emplace_back(key, std::move(value));
    return *this;
  }
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// What one workload run hands back to main().
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;  ///< timed loop wall time
  std::vector<double> latency_us;
  std::vector<double> setup_s;
  std::uint64_t digest_timed = 0;
  std::uint64_t digest_serial = 0;
  std::uint64_t prefix_items = 0;
  Json report;  ///< end-to-end metrics under the workload's own names
  Layers layers;
  /// Items and wall time of the rounds started in each 1 s slice of the
  /// timed loop. Throughput is the median slice rate, so a burst of
  /// interference from outside the process moves it less than a mean would.
  std::vector<double> slice_items, slice_wall;
  double peak_anon_mib = 0.0;
  double next_rss_sample_s = 0.0;
};

/// Odd slices of a traced run do the traced run's in-loop work and even
/// ones do not, so its cost shows as the rate difference: layer spans
/// around load, train_queued and append (nightly); per-trial busy spans,
/// shard queue sizes and replay inputs (home, fleet).
bool spans_on(const Args& a, double elapsed) {
  return a.trace && (static_cast<long>(elapsed) % 2) == 1;
}

void account_slice(RunResult& r, double elapsed, double items, double wall) {
  const auto slice = static_cast<std::size_t>(elapsed);
  if (r.slice_items.size() <= slice) {
    r.slice_items.resize(slice + 1, 0.0);
    r.slice_wall.resize(slice + 1, 0.0);
  }
  r.slice_items[slice] += items;
  r.slice_wall[slice] += wall;
}

/// Median rate over the slices of the given parity (-1: every slice).
double slice_rate(const RunResult& r, int parity = -1) {
  std::vector<double> rates;
  for (std::size_t i = 0; i < r.slice_items.size(); ++i) {
    if (r.slice_wall[i] <= 0.0) continue;
    if (parity >= 0 && static_cast<int>(i % 2) != parity) continue;
    rates.push_back(r.slice_items[i] / r.slice_wall[i]);
  }
  return quantile(rates, 0.5);
}

/// Tracks the peak anonymous resident memory (heap and stacks), sampled at
/// most every 50 ms of the timed loop and after each set-up. File pages of
/// the store's mmap'd segments are page cache and are left out: they grow
/// with the bytes a run happens to write, not with the program's footprint.
/// So are the program's own latency samples (`sample_bytes`, held in buffers
/// reserved up front), which grow with throughput.
void sample_rss(RunResult& r, double elapsed, std::size_t sample_bytes,
                bool force = false) {
  if (!force && elapsed < r.next_rss_sample_s) return;
  r.next_rss_sample_s = elapsed + 0.05;
  r.peak_anon_mib =
      std::max(r.peak_anon_mib,
               anon_rss_mib() - static_cast<double>(sample_bytes) / (1 << 20));
}

/// Capacity reserved for each latency sample buffer.
constexpr std::size_t kLatencyReserve = std::size_t{1} << 16;

void remove_dir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

serve::SegmentStoreParams store_params(const std::string& dir,
                                       std::size_t writers) {
  serve::SegmentStoreParams p;
  p.dir = dir;
  p.writers = writers;
  return p;
}

void fill_store_probe(const StoreProbe& p, Layers& L) {
  L["serve.store_load_us"] = p.load_us;
  L["serve.store_append_us"] = p.append_us;
  L["serve.index_probe_ns"] = p.index_probe_ns;
}

void fill_retrain(const LockstepStats& s, Layers& L) {
  L["rl.episodes_per_sec"] = static_cast<double>(s.episodes) / s.train_s;
  L["rl.lane_fill"] =
      static_cast<double>(s.episodes) / static_cast<double>(s.calls * kWidth);
}

// ---------------------------------------------------------------------------
// home_scenarios: scripted multi-ADL sessions on warm HomeDeployments.
// ---------------------------------------------------------------------------

constexpr std::size_t kHomeUsers = 4096;
constexpr std::size_t kHomeRoundSessions = 64;
constexpr std::size_t kHomePrefixRounds = 1;
constexpr std::size_t kHomePretrainEpisodes = 120;
constexpr std::size_t kProbeSessions = 96;
const sim::Duration kHomeCap = sim::Duration::minutes(30.0);

struct HomeJob {
  std::uint64_t index = 0;
  std::uint64_t user = 0;
  core::SessionScript script;
};

/// The session shapes of the repo's scenario corpus (tests/scenarios/
/// *.scenario), one per plan: its segments, caregiver interruptions,
/// forced freezes and wrong-tool grabs, and schedule hint, built directly
/// as SessionScripts. Plan-level knobs (users, rounds, severity,
/// compliance decay, severity drift, arrival order) are not part of a
/// session's shape and are left out; severity comes from the user.
std::vector<core::SessionScript> corpus_scripts() {
  const auto seg = [](const char* adl, std::size_t steps = 0,
                      bool resume = false) {
    core::ScriptPart p;
    p.adl = adl;
    p.steps = steps;
    p.resume = resume;
    return p;
  };
  const auto pause = [](double seconds) {
    core::ScriptPart p;
    p.pause = sim::Duration::seconds(seconds);
    return p;
  };
  const char* tea = "Tea-making";
  const char* brush = "Tooth-brushing";
  const char* wash = "Hand-washing";
  const char* dress = "Dressing";
  core::ScriptPart frozen = seg(tea);
  frozen.freeze = 1;
  core::ScriptPart grabs = seg(tea);
  grabs.wrong_tool = 2;
  return {
      {{seg(tea, 2), pause(300), seg(tea, 0, true)}, tea},  // caregiver_interrupt_long
      {{seg(tea, 2), pause(30), seg(tea, 0, true)}, tea},   // caregiver_interrupt_short
      {{seg(tea), seg(brush)}, tea},                        // compliance_decay
      {{seg(dress, 2), seg(wash), seg(dress, 0, true)}, dress},  // evening_rotation
      {{frozen, seg(brush)}, tea},                          // frozen_start_hints
      {{seg(tea, 2), seg(brush), seg(tea, 0, true)}, tea},  // interleaved_tea_brush
      {{seg(tea, 1), seg(wash), seg(tea, 1, true), seg(brush),
        seg(tea, 0, true)},
       tea},                                                // morning_rush
      {{seg(tea, 2), seg(brush), seg(tea, 0, true)}, tea},  // severity_drift
      {{seg(tea)}, ""},                                     // single_adl_baseline
      {{grabs, seg(brush)}, tea},                           // wrong_tool_storm
  };
}

/// Seed-deterministic stream of home sessions: each draws a user (hence a
/// severity) and one of the corpus shapes, all shapes weighted equally.
class HomeTraffic {
 public:
  explicit HomeTraffic(std::uint64_t seed)
      : shapes_(corpus_scripts()), rng_(exec::trial_seed(seed, 0x40e)) {}

  HomeJob next() {
    HomeJob job;
    job.index = next_index_++;
    job.user = rng_.pick_index(kHomeUsers);
    job.script = shapes_[rng_.pick_index(shapes_.size())];
    return job;
  }

 private:
  std::vector<core::SessionScript> shapes_;
  util::Rng rng_;
  std::uint64_t next_index_ = 0;
};

/// A session of a traced slice, kept for the layer replays.
struct TracedJob {
  HomeJob job;
  sim::Duration elapsed;
  std::size_t prompts = 0;
};

struct HomeShard {
  std::unique_ptr<core::HomeDeployment> home;
  std::vector<HomeJob> queue;
  std::vector<TracedJob> traced;
  std::vector<double> latency_us;
  double busy_s = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t sessions = 0, completed = 0, prompts = 0, failed = 0;
  std::uint64_t switches = 0, correct = 0;
  double virtual_s = 0.0;
};

struct HomeSite {
  std::unique_ptr<core::HomeDeployment> donor;
  std::vector<HomeShard> shards;
};

/// Set-up: pretrain one donor deployment, then stamp its recognizer and
/// planners into one warm deployment per shard.
HomeSite make_home(const adl::AdlLibrary& library, std::uint64_t seed) {
  HomeSite site;
  core::SystemConfig config;
  config.seed = exec::trial_seed(seed, 1000);
  site.donor = std::make_unique<core::HomeDeployment>(library, config);
  site.donor->pretrain(kHomePretrainEpisodes, exec::trial_seed(seed, 1001));
  site.shards.resize(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    config.seed = exec::trial_seed(seed, s);
    auto home = std::make_unique<core::HomeDeployment>(library, config);
    home->set_tracker_params(switching_tracker());
    home->adopt_recognizer(site.donor->recognizer());
    for (const adl::Adl& adl : library.adls()) {
      home->import_policy(adl.name(), site.donor->learner(adl.name()).q());
    }
    site.shards[s].home = std::move(home);
  }
  return site;
}

std::uint64_t home_outcome_hash(const HomeJob& job,
                                const core::HomeScriptResult& r) {
  std::uint64_t h = fold(job.index, job.user);
  h = fold(h, r.completed ? 1 : 0);
  h = fold(h, r.session.prompts_total);
  h = fold(h, r.session.praises);
  h = fold(h, r.segments_completed);
  h = fold(h, r.session.segment_switches);
  h = fold(h, r.session.recognized_correctly ? 1 : 0);
  h = fold(h, r.session.steps_to_recognition);
  h = fold(h, r.session.wrong_tool_recoveries);
  h = fold(h, r.idle_episodes);
  return fold(h, static_cast<std::uint64_t>(r.session.elapsed.total_micros()));
}

/// Enqueues one round onto the shards; returns the round's jobs.
std::vector<HomeJob> enqueue_home_round(HomeSite& site, HomeTraffic& traffic) {
  std::vector<HomeJob> jobs;
  for (std::size_t i = 0; i < kHomeRoundSessions; ++i) {
    HomeJob job = traffic.next();
    site.shards[job.user % kShards].queue.push_back(job);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// Drains every shard's queue, one trial per shard; with `spans` on, each
/// trial's busy time is recorded.
void drain_home(HomeSite& site, exec::TrialRunner& runner, std::uint64_t seed,
                bool spans) {
  runner.run(kShards, seed, [&](exec::TrialContext& ctx) -> char {
    HomeShard& sh = site.shards[ctx.index];
    const Clock::time_point start = spans ? Clock::now() : Clock::time_point{};
    for (const HomeJob& job : sh.queue) {
      const auto profile = patient::PatientProfile::with_severity(
          "U", user_severity(seed, job.user));
      try {
        const Clock::time_point t0 = Clock::now();
        const core::HomeScriptResult r =
            sh.home->run_script(job.script, profile, kHomeCap);
        sh.latency_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
        sh.digest += home_outcome_hash(job, r);
        ++sh.sessions;
        sh.completed += r.completed ? 1 : 0;
        sh.prompts += r.session.prompts_total;
        sh.switches += r.session.segment_switches;
        sh.correct += r.session.recognized_correctly ? 1 : 0;
        sh.virtual_s += r.session.elapsed.to_seconds();
        if (spans && sh.traced.size() < kProbeSessions / kShards) {
          sh.traced.push_back({job, r.session.elapsed, r.session.prompts_total});
        }
      } catch (const std::exception&) {
        ++sh.failed;
      }
    }
    sh.queue.clear();
    if (spans) sh.busy_s += seconds_between(start, Clock::now());
    return 0;
  });
}

std::uint64_t home_digest(const HomeSite& site) {
  std::uint64_t d = 0;
  for (const HomeShard& sh : site.shards) d += sh.digest;
  return d;
}

void fill_session_layers(const SessionProbe& p, Layers& L) {
  L["pavenet.sensing_us_per_session"] = p.sensing_us;
  L["pavenet.frames_per_session"] = p.frames;
  L["pavenet.frame_loss_share"] = p.frame_loss_share;
  L["pavenet.usage_events_per_session"] = p.usage_events;
  L["sensors.samples_per_session"] = p.samples;
  L["sensors.ns_per_sample"] = p.ns_per_sample;
  L.set("sensors.idle_sample_share", p.idle_sample_share,
        "derived: 1 - manipulated seconds / (virtual seconds x nodes) of the "
        "replayed sessions");
  L["sim.ns_per_event"] = p.sim_ns_per_event;
  L["sim.wakeups_per_session"] = p.events;
  L["recognition.observe_ns"] = p.observe_ns;
  L["planning.predict_ns"] = p.predict_ns;
  L["reminding.remind_ns"] = p.remind_ns;
}

/// Per-layer metrics that read a control probe on a workload that does not
/// reach the layer.
const std::vector<std::string> kSessionLayers = {
    "core.session_us", "core.virtual_s_per_session",
    "sensors.samples_per_session", "sensors.ns_per_sample",
    "sensors.idle_sample_share", "pavenet.sensing_us_per_session",
    "pavenet.frames_per_session", "pavenet.frame_loss_share",
    "pavenet.usage_events_per_session", "sim.ns_per_event",
    "sim.wakeups_per_session", "recognition.observe_ns",
    "recognition.correct_share", "recognition.switches_per_session",
    "planning.predict_ns", "planning.predicts_per_session",
    "reminding.remind_ns"};
const std::vector<std::string> kRetrainLayers = {"rl.episodes_per_sec",
                                                 "rl.lane_fill"};
const std::vector<std::string> kStoreLayers = {
    "serve.store_load_us",  "serve.store_append_us", "serve.index_probe_ns",
    "serve.bytes_per_append", "serve.delta_share",   "serve.compactions",
    "serve.reopen_scan_ms", "serve.resident_bytes_per_user"};

RunResult run_home(const Args& a, const adl::AdlLibrary& library) {
  RunResult r;
  HomeSite site;
  for (std::size_t k = 0; k < kSetups; ++k) {
    const Clock::time_point t0 = Clock::now();
    HomeSite s = make_home(library, a.seed);
    r.setup_s.push_back(seconds_between(t0, Clock::now()));
    sample_rss(r, 0.0, 0, true);
    if (k == 0) {
      // The 1-worker prefix replay that the timed run's digest must match.
      HomeTraffic traffic(a.seed);
      exec::TrialRunner serial(1);
      for (std::size_t round = 0; round < kHomePrefixRounds; ++round) {
        enqueue_home_round(s, traffic);
        drain_home(s, serial, a.seed, false);
      }
      r.digest_serial = home_digest(s);
    }
    if (k + 1 == kSetups) site = std::move(s);
  }

  HomeTraffic traffic(a.seed);
  exec::TrialRunner runner(a.workers);
  for (HomeShard& sh : site.shards) sh.latency_us.reserve(kLatencyReserve);
  std::vector<double> busy_before(kShards);
  // Traced slices only: shard queue sizes, trial busy spans, round walls.
  double imbalance_sum = 0.0, max_busy_sum = 0.0, mean_busy_sum = 0.0,
         traced_wall = 0.0;
  std::size_t rounds = 0, traced_rounds = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  while (elapsed < a.seconds || rounds < kHomePrefixRounds) {
    const bool on = spans_on(a, elapsed);
    std::uint64_t sessions_before = 0;
    for (const HomeShard& sh : site.shards) sessions_before += sh.sessions;
    const Clock::time_point t0 = Clock::now();
    enqueue_home_round(site, traffic);
    if (on) {
      std::size_t max_q = 0;
      for (std::size_t s = 0; s < kShards; ++s) {
        max_q = std::max(max_q, site.shards[s].queue.size());
        busy_before[s] = site.shards[s].busy_s;
      }
      imbalance_sum += static_cast<double>(max_q) * kShards / kHomeRoundSessions;
    }
    drain_home(site, runner, a.seed, on);
    const double wall = seconds_between(t0, Clock::now());
    if (on) {
      double max_busy = 0.0, sum_busy = 0.0;
      for (std::size_t s = 0; s < kShards; ++s) {
        const double b = site.shards[s].busy_s - busy_before[s];
        max_busy = std::max(max_busy, b);
        sum_busy += b;
      }
      max_busy_sum += max_busy;
      mean_busy_sum += sum_busy / kShards;
      traced_wall += wall;
      ++traced_rounds;
    }
    std::uint64_t sessions_after = 0;
    for (const HomeShard& sh : site.shards) sessions_after += sh.sessions;
    account_slice(r, elapsed, static_cast<double>(sessions_after - sessions_before),
                  wall);
    sample_rss(r, elapsed, (sessions_after + rounds) * sizeof(double));
    ++rounds;
    if (rounds == kHomePrefixRounds) r.digest_timed = home_digest(site);
    elapsed = seconds_between(start, Clock::now());
  }
  r.wall_s = elapsed;
  r.prefix_items = kHomePrefixRounds * kHomeRoundSessions;

  std::uint64_t sessions = 0, completed = 0, prompts = 0, switches = 0,
                correct = 0;
  double virtual_s = 0.0, busy = 0.0;
  for (HomeShard& sh : site.shards) {
    r.failed += sh.failed;
    sessions += sh.sessions;
    completed += sh.completed;
    prompts += sh.prompts;
    switches += sh.switches;
    correct += sh.correct;
    virtual_s += sh.virtual_s;
    busy += sh.busy_s;
    r.latency_us.insert(r.latency_us.end(), sh.latency_us.begin(),
                        sh.latency_us.end());
  }
  r.attempted = sessions + r.failed;
  const double n = static_cast<double>(sessions);
  r.report.num("sessions_per_sec", slice_rate(r))
      .num("session_p50_us", quantile(r.latency_us, 0.50))
      .num("session_p99_us", quantile(r.latency_us, 0.99))
      .num("completion_rate", static_cast<double>(completed) / n)
      .num("prompts_per_session", static_cast<double>(prompts) / n);
  if (!a.trace) return r;

  // Per-layer split: the timed run's own counters, then replays of the
  // first traced sessions through each layer's entry points.
  Layers& L = r.layers;
  L["core.session_us"] = mean(r.latency_us);
  L["core.virtual_s_per_session"] = virtual_s / n;
  L["recognition.correct_share"] = static_cast<double>(correct) / n;
  L["recognition.switches_per_session"] = static_cast<double>(switches) / n;

  ProbeInputs in;
  in.library = &library;
  in.seed = a.seed;
  for (const adl::Tool& t : library.tools().tools()) in.instrumented.push_back(t.id);
  const core::HomeDeployment& home0 = *site.shards[0].home;
  for (const adl::Adl& adl : library.adls()) {
    in.learners[adl.name()] = &home0.learner(adl.name());
  }
  in.recognizer = &home0.recognizer();
  util::Rng script_rng(exec::trial_seed(a.seed, 0x5c));
  double prompts_traced = 0.0;
  for (const HomeShard& sh : site.shards) {
    for (const TracedJob& t : sh.traced) {
      ProbeSession ps;
      ps.script = timed_from_script(
          library, t.job.script,
          patient::PatientProfile::with_severity(
              "U", user_severity(a.seed, t.job.user)),
          script_rng);
      ps.adl = t.job.script.parts.back().adl;
      ps.span = t.elapsed;
      prompts_traced += static_cast<double>(t.prompts);
      in.sessions.push_back(std::move(ps));
    }
  }
  const SessionProbe sp = probe_sessions(in);
  fill_session_layers(sp, L);
  // One predict per accepted usage event and one per prompt.
  L.set("planning.predicts_per_session",
        sp.usage_events +
            prompts_traced / static_cast<double>(in.sessions.size()),
        "derived: replayed usage events + prompts per session");

  const adl::Adl& tea = library.tea_making();
  const planning::RoutineLearner& tea_learner = home0.learner(tea.name());
  fill_retrain(probe_retrain(tea, tea_learner.q(),
                             make_transcripts(library, tea, 2048, a.seed), 4096,
                             a.seed),
               L);
  L.annotate(kRetrainLayers, "control: lockstep retrain of home's tea table");

  // No store on this workload: store metrics read a control store.
  constexpr std::size_t kControlUsers = 4096;
  SeededStore cs = seed_and_reopen(tea_learner,
                                   store_params(a.dir + "/home-control", 1),
                                   kControlUsers, kControlUsers);
  std::vector<std::uint64_t> sample;
  util::Rng rng(a.seed);
  for (std::size_t i = 0; i < 2048; ++i) sample.push_back(rng.pick_index(kControlUsers));
  fill_store_probe(probe_store(*cs.store, sample), L);
  StoreCounters::of(*cs.store).fill(L);
  L["serve.reopen_scan_ms"] = cs.reopen_ms;
  L["serve.resident_bytes_per_user"] =
      static_cast<double>(cs.store->index_slab_bytes()) / kControlUsers;
  L.annotate(kStoreLayers, "control: 4,096-user store; home touches no store");
  cs.store.reset();
  remove_dir(a.dir + "/home-control");

  L["serve.drain_us_per_session"] = r.wall_s * 1e6 / n;
  L.set("serve.pool_hit_rate", 1.0,
        "constant: every session runs on a resident deployment");
  L.set("serve.cold_loads_per_session", 0.0, "constant: no policy store");
  L["serve.shard_imbalance"] = imbalance_sum / static_cast<double>(traced_rounds);
  util::LatencyHistogram hist;
  for (const double us : r.latency_us) {
    hist.record(static_cast<std::uint64_t>(us * 1e3));
  }
  L["serve.session_p99_us_hist"] = hist.quantile(0.99) / 1e3;
  L["exec.idle_share"] =
      1.0 - busy / (static_cast<double>(a.workers) * traced_wall);
  L["exec.trial_max_over_mean"] = max_busy_sum / mean_busy_sum;
  return r;
}

// ---------------------------------------------------------------------------
// fleet_zipf: the million-user FleetEngine over a mmap SegmentStore.
// ---------------------------------------------------------------------------

constexpr std::size_t kFleetUsers = 1000000;
constexpr std::size_t kFleetRound = 256;
constexpr std::size_t kFleetSeedUsers = 16384;
constexpr std::size_t kFleetPrefixRounds = 4;
constexpr double kZipf = 1.1;
/// Traced arrivals kept as the layer replays' inputs.
constexpr std::size_t kFleetReplayUsers = 4096;

planning::RoutineLearner make_donor(const adl::AdlLibrary& library,
                                    std::uint64_t seed) {
  const adl::Adl& tea = library.tea_making();
  planning::RoutineLearner donor(tea, util::Rng(exec::trial_seed(seed, 17)));
  for (const auto& steps : make_transcripts(library, tea, 80, seed + 17)) {
    donor.train_episode(steps);
  }
  return donor;
}

struct FleetSite {
  std::unique_ptr<planning::RoutineLearner> donor;
  SeededStore seeded;
  std::unique_ptr<serve::FleetEngine> engine;
  std::unique_ptr<serve::ZipfianArrivals> arrivals;
};

/// Set-up: donor training, seeding the store with the Zipf head's anchors,
/// reopening it (timed scan), and registering every user.
FleetSite make_fleet(const adl::AdlLibrary& library, std::uint64_t seed,
                     const std::string& dir) {
  FleetSite f;
  f.donor = std::make_unique<planning::RoutineLearner>(make_donor(library, seed));
  f.seeded = seed_and_reopen(*f.donor, store_params(dir, kShards),
                             kFleetSeedUsers, kFleetUsers);
  serve::FleetEngineParams ep;
  ep.shards = kShards;
  ep.slots_per_shard = 2;
  ep.seed = exec::trial_seed(seed, 99);
  ep.system.learn_from_sessions = true;
  ep.write_back_every = 1;
  f.engine = std::make_unique<serve::FleetEngine>(
      library, library.tea_making(), *f.seeded.store, f.donor->q(), ep);
  f.engine->reserve_users(kFleetUsers);
  for (std::uint64_t u = 0; u < kFleetUsers; ++u) {
    f.engine->register_user(user_severity(seed, u));
  }
  f.arrivals = std::make_unique<serve::ZipfianArrivals>(
      kFleetUsers, kZipf, exec::trial_seed(seed, 7));
  return f;
}

std::uint64_t fleet_digest(const serve::FleetReport& rep) {
  std::uint64_t h = fold(rep.sessions, rep.completed);
  h = fold(h, rep.prompts);
  h = fold(h, rep.checksum);
  h = fold(h, rep.pool_hits);
  h = fold(h, rep.cold_loads);
  h = fold(h, rep.reference_starts);
  return fold(h, rep.appends);
}

/// Enqueues one round of Zipf arrivals. With `users` non-null (a traced
/// slice) it also keeps the first arrivals and returns the largest shard's
/// share.
std::size_t enqueue_fleet_round(FleetSite& f, std::vector<std::uint64_t>* users) {
  std::size_t per_shard[kShards] = {};
  for (std::size_t i = 0; i < kFleetRound; ++i) {
    const std::uint64_t u = f.arrivals->next();
    f.engine->enqueue(u);
    if (users == nullptr) continue;
    ++per_shard[u % kShards];
    if (users->size() < kFleetReplayUsers) users->push_back(u);
  }
  return *std::max_element(per_shard, per_shard + kShards);
}

/// Session-level layers of the single-ADL workloads: `users` (with their
/// severities) replayed as tea-making sessions on one warm CoredaSystem
/// serving `planner`'s table (core), then timed manipulations of the first
/// of them, over those sessions' virtual spans, through the sensing,
/// recognition, planning and reminding probes.
/// Returns the replayed sessions' prompts per session.
double tea_session_layers(const adl::AdlLibrary& library,
                          const planning::RoutineLearner& planner,
                          const std::vector<std::uint64_t>& users,
                          std::uint64_t seed, Layers& L) {
  constexpr std::size_t kCoreSessions = 512;
  const adl::Adl& tea = library.tea_making();
  core::SystemConfig config;
  config.seed = exec::trial_seed(seed, 0xc0);
  core::CoredaSystem system(library, tea, config);
  system.import_policy(planner.q());
  core::SessionResult result;
  result.observed_steps.reserve(core::kMaxSessionSteps);
  patient::PatientProfile profile;
  std::vector<double> span_us;
  std::vector<sim::Duration> elapsed;
  double virtual_s = 0.0;
  std::uint64_t prompts = 0;
  const std::size_t n = std::min(users.size(), kCoreSessions);
  for (std::size_t i = 0; i < n; ++i) {
    profile.apply_severity(user_severity(seed, users[i]));
    const Clock::time_point t0 = Clock::now();
    system.run_session_inplace(profile, sim::Duration::minutes(15.0), {}, result);
    span_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    elapsed.push_back(result.elapsed);
    virtual_s += result.elapsed.to_seconds();
    prompts += result.prompts_total;
  }
  L["core.session_us"] = mean(span_us);
  L["core.virtual_s_per_session"] = virtual_s / static_cast<double>(n);

  const recognition::AdlRecognizer recognizer = train_recognizer(library, seed);
  ProbeInputs in;
  in.library = &library;
  in.seed = seed;
  in.instrumented = tea.tools();
  in.learners[tea.name()] = &planner;
  in.recognizer = &recognizer;
  for (std::size_t i = 0; i < std::min(n, kProbeSessions); ++i) {
    ProbeSession ps;
    patient::BehaviorGenerator gen(
        tea, library.tools(),
        patient::PatientProfile::with_severity("U", user_severity(seed, users[i])),
        util::Rng(exec::trial_seed(seed, users[i])));
    ps.script = gen.timed_episode();
    ps.adl = tea.name();
    ps.span = elapsed[i];
    in.sessions.push_back(std::move(ps));
  }
  const SessionProbe sp = probe_sessions(in);
  fill_session_layers(sp, L);
  L["recognition.correct_share"] = sp.tracker_correct_share;
  L["recognition.switches_per_session"] = sp.tracker_switches;
  const double prompts_per_session =
      static_cast<double>(prompts) / static_cast<double>(n);
  // One predict per accepted usage event and one per prompt.
  L.set("planning.predicts_per_session", sp.usage_events + prompts_per_session,
        "derived: replayed usage events + prompts per session");
  return prompts_per_session;
}

RunResult run_fleet(const Args& a, const adl::AdlLibrary& library) {
  RunResult r;
  FleetSite f;
  for (std::size_t k = 0; k < kSetups; ++k) {
    const std::string dir = a.dir + "/fleet-" + std::to_string(k);
    const Clock::time_point t0 = Clock::now();
    FleetSite s = make_fleet(library, a.seed, dir);
    r.setup_s.push_back(seconds_between(t0, Clock::now()));
    sample_rss(r, 0.0, 0, true);
    if (k == 0) {
      exec::TrialRunner serial(1);
      serve::FleetReport rep;
      for (std::size_t round = 0; round <= kFleetPrefixRounds; ++round) {
        enqueue_fleet_round(s, nullptr);
        rep = s.engine->drain(serial);
      }
      r.digest_serial = fleet_digest(rep);
    }
    if (k + 1 == kSetups) {
      f = std::move(s);
    } else {
      s = FleetSite{};
      remove_dir(dir);
    }
  }

  exec::TrialRunner runner(a.workers);
  // Untimed warm-up round: first-touch page faults and slot residency.
  enqueue_fleet_round(f, nullptr);
  serve::FleetReport rep = f.engine->drain(runner);
  f.engine->reset_latency();
  const serve::FleetReport warm = rep;
  serve::SegmentStore& store = *f.seeded.store;
  const StoreCounters counters0 = StoreCounters::of(store);

  // Traced slices only: their first arrivals (the replays' inputs) and the
  // largest shard's share of each round.
  std::vector<std::uint64_t> traced_users;
  traced_users.reserve(kFleetReplayUsers);
  double max_sum = 0.0;
  std::size_t rounds = 0, traced_rounds = 0;
  r.latency_us.reserve(kLatencyReserve);
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  while (elapsed < a.seconds || rounds < kFleetPrefixRounds) {
    const bool on = spans_on(a, elapsed);
    const std::uint64_t before = rep.sessions;
    const Clock::time_point t0 = Clock::now();
    const std::size_t max_share =
        enqueue_fleet_round(f, on ? &traced_users : nullptr);
    try {
      rep = f.engine->drain(runner);
    } catch (const std::exception&) {
      r.failed += kFleetRound;
      break;
    }
    const double wall = seconds_between(t0, Clock::now());
    if (on) {
      max_sum += static_cast<double>(max_share);
      ++traced_rounds;
    }
    r.latency_us.push_back(wall * 1e6);
    account_slice(r, elapsed, static_cast<double>(rep.sessions - before), wall);
    sample_rss(r, elapsed, r.latency_us.size() * sizeof(double));
    ++rounds;
    if (rounds == kFleetPrefixRounds) r.digest_timed = fleet_digest(rep);
    elapsed = seconds_between(start, Clock::now());
  }
  r.wall_s = elapsed;
  r.prefix_items = (kFleetPrefixRounds + 1) * kFleetRound;
  const double sessions = static_cast<double>(rep.sessions - warm.sessions);
  r.failed += rep.dropped_sessions + rep.crashed_appends;
  r.attempted = rounds * kFleetRound;
  r.report.num("sessions_per_sec", slice_rate(r))
      .num("round_p50_us", quantile(r.latency_us, 0.50))
      .num("round_p99_us", quantile(r.latency_us, 0.99))
      .num("completion_rate",
           static_cast<double>(rep.completed - warm.completed) / sessions)
      .num("prompts_per_session",
           static_cast<double>(rep.prompts - warm.prompts) / sessions);
  if (!a.trace) return r;

  Layers& L = r.layers;
  const adl::Adl& tea = library.tea_making();
  // core: the traced users' sessions replayed on one warm system.
  tea_session_layers(library, *f.donor, traced_users, a.seed, L);
  fill_retrain(probe_retrain(tea, f.donor->q(),
                             make_transcripts(library, tea, 2048, a.seed), 4096,
                             a.seed),
               L);
  L.annotate(kRetrainLayers, "control: lockstep retrain of the donor table");

  double drain_s = 0.0;
  for (const double us : r.latency_us) drain_s += us / 1e6;
  L["serve.drain_us_per_session"] = drain_s * 1e6 / sessions;
  L["serve.pool_hit_rate"] =
      static_cast<double>(rep.pool_hits - warm.pool_hits) / sessions;
  L["serve.cold_loads_per_session"] =
      static_cast<double>(rep.cold_loads - warm.cold_loads) / sessions;
  (StoreCounters::of(store) - counters0).fill(L);
  L["serve.reopen_scan_ms"] = f.seeded.reopen_ms;
  const double traced_sessions = static_cast<double>(traced_rounds * kFleetRound);
  L["serve.shard_imbalance"] = max_sum * kShards / traced_sessions;
  L["serve.resident_bytes_per_user"] =
      static_cast<double>(f.engine->resident_state_bytes() +
                          store.index_slab_bytes()) /
      static_cast<double>(kFleetUsers);
  L["serve.session_p99_us_hist"] = rep.latency.quantile(0.99) / 1e3;
  // The engine runs its shard trials internally; with one shard per worker
  // a drain lasts as long as its busiest shard, so idle time follows from
  // the per-shard session counts.
  const double mean_sum = traced_sessions / kShards;
  L.set("exec.idle_share", a.workers >= kShards ? 1.0 - mean_sum / max_sum : 0.0,
        "derived: 1 - mean / max sessions per shard, assuming equal session "
        "cost and one worker per shard (0 below 4 workers)");
  L.set("exec.trial_max_over_mean", max_sum / mean_sum,
        "derived: max / mean sessions per shard per drain");
  // Store probe last: it appends, which would skew the counters above.
  fill_store_probe(probe_store(store, traced_users), L);
  return r;
}

// ---------------------------------------------------------------------------
// nightly_retrain: load -> lockstep retrain -> append over a large cohort.
// ---------------------------------------------------------------------------

constexpr std::size_t kCohort = 16384;
constexpr std::size_t kTranscriptPool = 2048;
constexpr std::size_t kNightlyPrefixUsers = 64;

struct NightlySite {
  std::unique_ptr<planning::RoutineLearner> donor;
  Transcripts transcripts;
  SeededStore seeded;
  std::unique_ptr<planning::LaneTrainer> trainer;
  std::vector<rl::QTable> tables;  ///< per-slot load / export scratch
};

NightlySite make_nightly(const adl::AdlLibrary& library, std::uint64_t seed,
                         const std::string& dir) {
  NightlySite n;
  const adl::Adl& tea = library.tea_making();
  n.donor = std::make_unique<planning::RoutineLearner>(make_donor(library, seed));
  n.transcripts = make_transcripts(library, tea, kTranscriptPool, seed + 0x11);
  n.seeded = seed_and_reopen(*n.donor, store_params(dir, 1), kCohort, kCohort);
  n.trainer = std::make_unique<planning::LaneTrainer>(
      tea, kWidth, planning::LearnerConfig(), 64);
  n.tables.assign(kWidth, rl::QTable(n.donor->q().num_states(),
                                     n.donor->q().num_actions()));
  return n;
}

/// Spans of the nightly batches run while layer spans are on.
struct NightlySpans {
  std::vector<double> load_us, append_us;
  LockstepStats retrain;
};

/// Retrains users [base, base + kWidth) for `night`; returns the digest
/// contribution and adds each user's greedy accuracy to `accuracy`.
std::uint64_t retrain_batch(NightlySite& n, std::uint64_t seed,
                            std::uint64_t night, std::uint64_t base,
                            double& accuracy, std::uint64_t& failed,
                            NightlySpans* spans) {
  planning::LaneTrainer& trainer = *n.trainer;
  serve::SegmentStore& store = *n.seeded.store;
  std::vector<rl::QTable>& tables = n.tables;
  std::uint64_t versions[kWidth] = {};
  std::uint64_t keys[kWidth] = {};
  bool ok[kWidth] = {};
  const std::uint64_t night_seed = fold(seed, night);
  for (std::size_t i = 0; i < kWidth; ++i) {
    const std::uint64_t user = base + i;
    const Clock::time_point t0 = Clock::now();
    std::optional<std::uint64_t> v;
    try {
      v = store.load(user, tables[i]);
    } catch (const std::exception&) {
    }
    if (spans) spans->load_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    ok[i] = v.has_value();
    versions[i] = v.value_or(0);
    keys[i] = fold(night_seed, user);
    trainer.begin_retraining(i, ok[i] ? tables[i] : n.donor->q(),
                             util::Rng(exec::trial_seed(night_seed, user)));
  }
  train_lockstep(trainer, n.transcripts, keys, spans ? &spans->retrain : nullptr);
  std::uint64_t digest = 0;
  for (std::size_t i = 0; i < kWidth; ++i) {
    const std::uint64_t user = base + i;
    if (!ok[i]) {
      ++failed;
      continue;
    }
    trainer.export_q(i, tables[i]);
    const Clock::time_point t0 = Clock::now();
    try {
      store.append(user, tables[i], versions[i] + 1);
    } catch (const std::exception&) {
      ++failed;
      continue;
    }
    if (spans) spans->append_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    std::uint64_t h = fold(night, user);
    for (std::size_t s = 0; s < tables[i].num_states(); ++s) {
      double row_sum = 0.0;
      for (const double v : tables[i].row(static_cast<rl::StateId>(s))) row_sum += v;
      h = fold(h, double_bits(row_sum));
    }
    digest += h;
    accuracy += trainer.greedy_accuracy(i);
  }
  return digest;
}

RunResult run_nightly(const Args& a, const adl::AdlLibrary& library) {
  RunResult r;
  NightlySite n;
  const std::string timed_dir = a.dir + "/nightly-" + std::to_string(kSetups - 1);
  for (std::size_t k = 0; k < kSetups; ++k) {
    const std::string dir = a.dir + "/nightly-" + std::to_string(k);
    const Clock::time_point t0 = Clock::now();
    NightlySite s = make_nightly(library, a.seed, dir);
    r.setup_s.push_back(seconds_between(t0, Clock::now()));
    sample_rss(r, 0.0, 0, true);
    if (k == 0) {
      double acc = 0.0;
      std::uint64_t failed = 0;
      for (std::uint64_t base = 0; base < kNightlyPrefixUsers; base += kWidth) {
        r.digest_serial += retrain_batch(s, a.seed, 0, base, acc, failed, nullptr);
      }
    }
    if (k + 1 == kSetups) {
      n = std::move(s);
    } else {
      s = NightlySite{};
      remove_dir(dir);
    }
  }

  // Store counters restart with each reopen; sum them per store object.
  StoreCounters written;
  NightlySpans spans;
  // A nightly job's latency is the time to sweep the whole cohort; batch
  // times are reported alongside.
  std::vector<double> batch_us;
  batch_us.reserve(std::size_t{1} << 21);
  r.latency_us.reserve(kLatencyReserve);
  double accuracy = 0.0, batch_s = 0.0;
  std::uint64_t digest = 0, users = 0, night = 0, base = 0;
  const Clock::time_point start = Clock::now();
  Clock::time_point night_start = start;
  double elapsed = 0.0;
  while (elapsed < a.seconds || users < kNightlyPrefixUsers ||
         r.latency_us.empty()) {
    const bool on = spans_on(a, elapsed);
    const Clock::time_point t0 = Clock::now();
    if (base == 0 && night > 0) {
      // Each night is one job: open the store, sweep the cohort, close it.
      night_start = t0;
      written += StoreCounters::of(*n.seeded.store);
      n.seeded.store.reset();
      n.seeded.store = open_store(*n.donor, store_params(timed_dir, 1));
      n.seeded.store->reserve_users(kCohort);
    }
    digest += retrain_batch(n, a.seed, night, base, accuracy, r.failed,
                            on ? &spans : nullptr);
    const Clock::time_point t1 = Clock::now();
    const double wall = seconds_between(t0, t1);
    batch_us.push_back(wall * 1e6);
    batch_s += wall;
    account_slice(r, elapsed, kWidth, wall);
    sample_rss(r, elapsed, (batch_us.size() + r.latency_us.size()) * sizeof(double));
    users += kWidth;
    if (users == kNightlyPrefixUsers) r.digest_timed = digest;
    base += kWidth;
    if (base == kCohort) {
      r.latency_us.push_back(seconds_between(night_start, t1) * 1e6);
      base = 0;
      ++night;
    }
    elapsed = seconds_between(start, Clock::now());
  }
  written += StoreCounters::of(*n.seeded.store);
  r.wall_s = elapsed;
  r.prefix_items = kNightlyPrefixUsers;
  r.attempted = users;
  const double retrained = static_cast<double>(users - r.failed);
  r.report.num("users_retrained_per_sec", slice_rate(r))
      .num("night_p50_us", quantile(r.latency_us, 0.50))
      .num("batch_p50_us", quantile(batch_us, 0.50))
      .num("batch_p99_us", quantile(batch_us, 0.99))
      .num("retrain_greedy_accuracy", accuracy / retrained)
      .integer("nights_started", night + 1);
  if (!a.trace) return r;

  Layers& L = r.layers;
  fill_retrain(spans.retrain, L);
  L["serve.store_load_us"] = mean(spans.load_us);
  L["serve.store_append_us"] = mean(spans.append_us);
  {
    std::vector<std::uint64_t> sample;
    util::Rng rng(a.seed);
    for (std::size_t i = 0; i < 4096; ++i) sample.push_back(rng.pick_index(kCohort));
    L["serve.index_probe_ns"] = probe_store(*n.seeded.store, sample).index_probe_ns;
  }
  written.fill(L);
  L["serve.reopen_scan_ms"] = n.seeded.reopen_ms;
  L["serve.drain_us_per_session"] = r.wall_s * 1e6 / retrained;
  L.set("serve.pool_hit_rate", 0.0, "constant: no resident pool");
  L.set("serve.cold_loads_per_session", 1.0,
        "constant: the sweep loads every user once");
  L.set("serve.shard_imbalance", 1.0, "constant: one sequential lane");
  L["serve.resident_bytes_per_user"] =
      static_cast<double>(n.seeded.store->index_slab_bytes()) /
      static_cast<double>(kCohort);
  util::LatencyHistogram hist;
  for (const double us : batch_us) hist.record(static_cast<std::uint64_t>(us * 1e3));
  L["serve.session_p99_us_hist"] = hist.quantile(0.99) / 1e3;
  // One thread: idle is the loop's time outside the batches.
  L["exec.idle_share"] = 1.0 - batch_s / r.wall_s;
  L.set("exec.trial_max_over_mean", 1.0, "constant: one trial");

  // Session layers do not run nightly; these probes replay cohort users as
  // tea sessions, a control that should not move with planner or store
  // changes.
  std::vector<std::uint64_t> cohort(512);
  for (std::uint64_t u = 0; u < cohort.size(); ++u) cohort[u] = u;
  tea_session_layers(library, *n.donor, cohort, a.seed, L);
  L.annotate(kSessionLayers, "control: cohort users replayed as tea sessions");
  return r;
}

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    const adl::AdlLibrary library;
    RunResult r;
    std::size_t workers = a.workers;
    if (a.workload == "home_scenarios") {
      r = run_home(a, library);
    } else if (a.workload == "fleet_zipf") {
      r = run_fleet(a, library);
    } else if (a.workload == "nightly_retrain") {
      workers = 1;  // a sequential sweep
      r = run_nightly(a, library);
    } else {
      throw std::invalid_argument("unknown workload " + a.workload);
    }

    Json e2e;
    e2e.num("items_per_sec", slice_rate(r))
        .num("latency_p50_us", quantile(r.latency_us, 0.50))
        .num("setup_s", quantile(r.setup_s, 0.5))
        .num("peak_rss_mb", r.peak_anon_mib);
    r.report.num("failed_share", r.attempted > 0
                                     ? static_cast<double>(r.failed) /
                                           static_cast<double>(r.attempted)
                                     : 1.0)
        .num("setup_s", quantile(r.setup_s, 0.5))
        .num("peak_rss_mb", r.peak_anon_mib)
        .integer("latency_samples", r.latency_us.size());
    Json layers, notes;
    if (a.trace) {
      r.layers["trace_overhead_share"] = 1.0 - slice_rate(r, 1) / slice_rate(r, 0);
      r.layers["rl.simd"] = rl::kern::simd_enabled() ? 1.0 : 0.0;
      for (const auto& [name, value] : r.layers.value) layers.num(name, value);
      for (const auto& [name, how] : r.layers.note) notes.str(name, how);
    }
    Json record;
    record.str("workload", a.workload)
        .integer("seed", a.seed)
        .num("seconds", a.seconds)
        .integer("nproc", available_cpus())
        .integer("hardware_concurrency", std::thread::hardware_concurrency())
        .integer("workers", workers)
        .integer("shards", kShards)
        .boolean("simd", rl::kern::simd_enabled())
        .str("build_type", COREDA_BUILD_TYPE)
        .integer("attempted", r.attempted)
        .integer("succeeded", r.attempted - r.failed)
        .integer("failed", r.failed);
    Json out;
    out.object("record", record)
        .object("e2e", e2e)
        .object("report", r.report)
        .object("layers", layers)
        .object("layer_notes", notes)
        .integer("prefix_items", r.prefix_items)
        .str("digest_timed", hex(r.digest_timed))
        .str("digest_serial", hex(r.digest_serial))
        .boolean("digest_ok", r.digest_timed == r.digest_serial);
    std::printf("%s\n", out.dump().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "coreda_perfbench: %s\n", e.what());
    return 1;
  }
}
