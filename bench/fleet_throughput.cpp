// Fleet-scale training throughput: the millions-of-users serving shape,
// exercised end to end for the first time.
//
// The paper trains ONE personal TD(λ) learner per user per ADL (§2.2); the
// ROADMAP's north star is a service hosting that loop for millions of
// users. This bench simulates a fleet of N users, each with a *perturbed
// personal routine* (their own step order for the ADL plus their own
// sensing-noise profile), and retrains every user's learner concurrently
// via exec::TrialRunner — the serving-shaped workload the zero-allocation
// training hot path exists for.
//
// Reported: episodes/sec across the fleet and allocations/episode (global
// operator-new counter), written to the --timing-json side channel
// (BENCH_fleet.json). Stdout stays byte-identical at any --jobs so the
// determinism contract of the trial runner can be checked by diffing.
//
// By default every user trains their own planning::RoutineLearner (one
// width-1 lane of the SoA engine). With --lanes=N (N > 1) the fleet is
// grouped by routine signature and stepped through one planning::
// LaneTrainer per batch of N users. Per-user RNG streams, ε schedules and
// tables are preserved exactly, so stdout stays byte-identical to the
// per-user path (and to any --jobs); only the wall-clock side channel
// changes.
//
// Usage:
//   bench_fleet_throughput --users=1000 --episodes=120 --jobs=4
//       --lanes=8 --timing-json=BENCH_fleet.json

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <span>
#include <sstream>
#include <vector>

#include "adl/library.hpp"
#include "exec/trial_runner.hpp"
#include "planning/lane_trainer.hpp"
#include "planning/learner.hpp"
#include "util/alloc_counter.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

using namespace coreda;

/// One user's personal setup: their own routine order for the ADL and the
/// noise profile of their home's sensing installation.
struct UserSpec {
  std::vector<adl::StepId> routine;  ///< personal step order
  double p_drop = 0.0;               ///< per-step extraction miss
  double p_repeat = 0.0;             ///< per-step sensor re-trigger
  double p_spurious = 0.0;           ///< per-step foreign-tool glitch
  /// Joint cumulative table of the three independent per-step events, so
  /// sensed_episode spends one uniform() per routine step instead of three.
  /// Outcome order: clean, drop, repeat, spurious+clean, spurious+drop
  /// (spurious+repeat is the implied tail). Same joint distribution as the
  /// three Bernoulli draws it replaces — only the stream mapping differs,
  /// and it is shared by the per-user and batched paths alike.
  std::array<double, 5> cum{};
};

/// Derives user `rng`'s personal routine: the reference order with up to
/// one adjacent transposition of intermediate steps — enough to make every
/// user's optimal policy genuinely personal without breaking the ADL's
/// terminal step.
UserSpec make_user(const adl::AdlRoutine& reference, util::Rng& rng) {
  UserSpec user;
  for (const adl::AdlStep& step : reference.steps()) {
    user.routine.push_back(step.step_id());
  }
  // Keep the terminal step in place (it defines ADL completion); swap one
  // adjacent intermediate pair for roughly half the fleet.
  if (user.routine.size() > 3 && rng.uniform() < 0.5) {
    const std::size_t i =
        1 + static_cast<std::size_t>(rng.uniform() *
                                     static_cast<double>(
                                         user.routine.size() - 3));
    std::swap(user.routine[i - 1], user.routine[i]);
  }
  const double severity = rng.uniform();
  user.p_drop = 0.05 + 0.15 * severity;     // the electronic-pot regime
  user.p_repeat = 0.05 * severity;
  user.p_spurious = 0.05 * severity;
  const double ps = user.p_spurious, pd = user.p_drop, pr = user.p_repeat;
  user.cum[0] = (1.0 - ps) * (1.0 - pd) * (1.0 - pr);     // clean
  user.cum[1] = user.cum[0] + (1.0 - ps) * pd;            // drop
  user.cum[2] = user.cum[1] + (1.0 - ps) * (1.0 - pd) * pr;  // repeat
  user.cum[3] = user.cum[2] + ps * (1.0 - pd) * (1.0 - pr);  // spur+clean
  user.cum[4] = user.cum[3] + ps * pd;                    // spur+drop
  return user;
}

/// One recorded ADL process of this user: their personal order passed
/// through a cheap StepId-level sensing-noise model. (The full synthetic
/// signal stack costs ~0.2 ms per episode — three orders of magnitude more
/// than the training step this bench isolates — and adds nothing to the
/// training-path load; the noise *pattern* is what the learner sees.)
void sensed_episode(const UserSpec& user, adl::StepId foreign_tool,
                    util::Rng& rng, std::vector<adl::StepId>& out) {
  out.clear();
  for (const adl::StepId step : user.routine) {
    // One draw through the user's joint cumulative table; the first compare
    // resolves the clean case (p >= 0.76 at worst severity).
    const double u = rng.uniform();
    if (u < user.cum[0]) {
      out.push_back(step);
      continue;
    }
    if (u < user.cum[1]) continue;
    if (u < user.cum[2]) {
      out.push_back(step);
      out.push_back(step);
      continue;
    }
    out.push_back(foreign_tool);
    if (u < user.cum[3]) {
      out.push_back(step);
    } else if (u >= user.cum[4]) {
      out.push_back(step);
      out.push_back(step);
    }
  }
}

struct UserResult {
  double final_accuracy = 0.0;
  double q_checksum = 0.0;
  std::uint64_t episodes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parse(argc, argv);
  exec::TrialRunner runner(exec::jobs_from_flags(flags));
  const auto users = flags.get_count("users", 1000);
  const auto episodes = flags.get_count("episodes", 120);
  const auto lanes = flags.get_count("lanes", 1);

  adl::AdlLibrary library;
  const adl::Adl& reference = library.tea_making();
  // A tooth-brushing tool id: guaranteed outside the tea-making vocabulary,
  // so spurious glitches exercise the learner's skip path.
  const adl::StepId foreign_tool = adl::tools::kToothbrush;

  std::printf("Fleet training throughput: %zu users x %zu episodes "
              "(tea-making, personal routines)\n\n",
              users, episodes);

  // Steady-state allocation contract, measured single-user before the fleet
  // run so pool bookkeeping cannot be misattributed to the training path.
  double steady_allocs_per_episode = 0.0;
  {
    util::Rng rng(4242);
    const UserSpec user = make_user(reference.primary_routine(), rng);
    planning::RoutineLearner learner(reference, util::Rng(17));
    std::vector<adl::StepId> episode;
    // Worst case: spurious + step + repeat per routine position. Feeding it
    // once up front warms the learner's scratch to the maximum length any
    // real episode can reach, so steady state is genuinely allocation-free.
    episode.reserve(user.routine.size() * 3);
    for (const adl::StepId step : user.routine) {
      episode.push_back(foreign_tool);
      episode.push_back(step);
      episode.push_back(step);
    }
    learner.train_episode(episode);
    for (int i = 0; i < 16; ++i) {
      sensed_episode(user, foreign_tool, rng, episode);
      learner.train_episode(episode);
    }
    constexpr int kProbe = 1000;
    const std::uint64_t before = util::allocation_count();
    for (int i = 0; i < kProbe; ++i) {
      sensed_episode(user, foreign_tool, rng, episode);
      learner.train_episode(episode);
    }
    steady_allocs_per_episode =
        static_cast<double>(util::allocation_count() - before) / kProbe;
  }

  const std::uint64_t fleet_allocs_before = util::allocation_count();
  const exec::Stopwatch timer;
  std::vector<UserResult> results;
  if (lanes <= 1) {
    results = runner.run(users, 777, [&](exec::TrialContext& ctx) {
      const UserSpec user = make_user(reference.primary_routine(), ctx.rng);
      // The user's personal ADL: same tool set, their own order — the
      // learner's reference routine IS the personal one, so accuracy
      // scores personalization, not conformance to the factory default.
      std::vector<adl::AdlStep> steps;
      for (const adl::StepId id : user.routine) {
        steps.push_back(adl::AdlStep{std::string(), id});
      }
      const adl::Adl personal(
          reference.name(),
          {adl::AdlRoutine(reference.name(), std::move(steps))});

      planning::RoutineLearner learner(
          personal, util::Rng(exec::trial_seed(778, ctx.index)));
      std::vector<adl::StepId> episode;
      episode.reserve(user.routine.size() * 3);
      UserResult result;
      for (std::size_t e = 0; e < episodes; ++e) {
        sensed_episode(user, foreign_tool, ctx.rng, episode);
        learner.train_episode(episode);
        ++result.episodes;
      }
      result.final_accuracy = learner.greedy_accuracy();
      const rl::QTable& q = learner.q();
      for (rl::StateId s = 0; s < q.num_states(); ++s) {
        for (rl::ActionId a = 0; a < q.num_actions(); ++a) {
          result.q_checksum += q.get(s, a);
        }
      }
      return result;
    });
  } else {
    // Batched path: identical per-user streams (env rng = the trial rng the
    // per-user path would get, learner rng = trial_seed(778, user)), N
    // users per trainer. Results land user-indexed, so the summary below
    // accumulates in the same order as the per-user path — the stdout
    // byte-identity check covers --lanes as well as --jobs.
    results.assign(users, UserResult{});
    std::vector<UserSpec> specs;
    specs.reserve(users);
    std::vector<util::Rng> env;
    env.reserve(users);
    for (std::size_t u = 0; u < users; ++u) {
      env.emplace_back(exec::trial_seed(777, u));
      specs.push_back(make_user(reference.primary_routine(), env.back()));
    }
    // Lane slots must share the codec (tool set and first-seen order), so
    // batches are drawn from same-routine-signature groups only.
    std::map<std::vector<adl::StepId>, std::vector<std::size_t>> groups;
    for (std::size_t u = 0; u < users; ++u) {
      groups[specs[u].routine].push_back(u);
    }
    struct Batch {
      const std::vector<adl::StepId>* routine = nullptr;
      std::span<const std::size_t> members;
    };
    std::vector<Batch> batches;
    for (const auto& [routine, members] : groups) {
      for (std::size_t base = 0; base < members.size(); base += lanes) {
        const std::size_t n = std::min(lanes, members.size() - base);
        batches.push_back(Batch{&routine, {members.data() + base, n}});
      }
    }
    // Batches touch disjoint users, so fanning them across the pool keeps
    // --jobs determinism for free.
    runner.run(batches.size(), 0, [&](exec::TrialContext& ctx) {
      const Batch& b = batches[ctx.index];
      std::vector<adl::AdlStep> steps;
      for (const adl::StepId id : *b.routine) {
        steps.push_back(adl::AdlStep{std::string(), id});
      }
      const adl::Adl personal(
          reference.name(),
          {adl::AdlRoutine(reference.name(), std::move(steps))});

      planning::LaneTrainer trainer(personal, b.members.size());
      std::vector<std::vector<adl::StepId>> episode(b.members.size());
      for (std::size_t i = 0; i < b.members.size(); ++i) {
        trainer.reset_slot(
            i, util::Rng(exec::trial_seed(778, b.members[i])));
        episode[i].reserve(b.routine->size() * 3);
      }
      for (std::size_t e = 0; e < episodes; ++e) {
        for (std::size_t i = 0; i < b.members.size(); ++i) {
          sensed_episode(specs[b.members[i]], foreign_tool,
                         env[b.members[i]], episode[i]);
          trainer.queue_episode(i, episode[i]);
        }
        trainer.train_queued();
      }
      for (std::size_t i = 0; i < b.members.size(); ++i) {
        UserResult& r = results[b.members[i]];
        r.final_accuracy = trainer.greedy_accuracy(i);
        r.q_checksum = trainer.q_sum(i);
        r.episodes = episodes;
      }
      return char{0};
    });
  }
  const double seconds = timer.seconds();
  const std::uint64_t fleet_allocs =
      util::allocation_count() - fleet_allocs_before;

  double accuracy_sum = 0.0;
  double checksum = 0.0;
  std::uint64_t trained = 0;
  std::size_t converged = 0;
  for (const UserResult& r : results) {
    accuracy_sum += r.final_accuracy;
    checksum += r.q_checksum;
    trained += r.episodes;
    if (r.final_accuracy >= 0.95) ++converged;
  }

  util::TextTable table("Fleet summary (timing in --timing-json only)");
  table.set_header({"metric", "value"});
  table.add_row({"users", std::to_string(users)});
  table.add_row({"episodes/user", std::to_string(episodes)});
  table.add_row({"episodes trained", std::to_string(trained)});
  table.add_row(
      {"mean final greedy accuracy",
       util::format_percent(accuracy_sum / static_cast<double>(users), 1)});
  table.add_row({"users at >=95% accuracy",
                 std::to_string(converged) + "/" + std::to_string(users)});
  {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6e", checksum);
    table.add_row({"fleet Q checksum", buf});
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nThe summary is byte-identical at any --jobs (seed-split\n"
            "TrialRunner); only the wall-clock side channel may differ.");

  const double eps_per_sec =
      seconds > 0.0 ? static_cast<double>(trained) / seconds : 0.0;
  std::ostringstream extra;
  extra << "\"users\": " << users << ", \"episodes_per_user\": " << episodes
        << ", \"lanes\": " << lanes
        << ", \"episodes_per_sec\": " << eps_per_sec;
  // Scaling sanity for bench_parallel.sh: with a jobs=1 reference rate
  // supplied, parallel_efficiency = eps/sec / (jobs x reference) — 1.0 is
  // perfect scaling, < 1/jobs means adding workers *lost* throughput.
  // Without a reference there is nothing to compare, so no field.
  const double ref_eps = flags.get_double("ref-eps-per-sec", 0.0);
  if (ref_eps > 0.0) {
    extra << ", \"parallel_efficiency\": "
          << eps_per_sec / (static_cast<double>(runner.jobs()) * ref_eps);
  }
  extra << ", \"allocs_per_episode\": "
        << (trained > 0
                ? static_cast<double>(fleet_allocs) /
                      static_cast<double>(trained)
                : 0.0)
        << ", \"steady_state_allocs_per_episode\": "
        << steady_allocs_per_episode;
  exec::append_timing_record(flags.get("timing-json"), "fleet_throughput",
                             runner.jobs(), users, seconds, extra.str());
  return 0;
}
