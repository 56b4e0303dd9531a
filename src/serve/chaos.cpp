#include "serve/chaos.hpp"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <utility>

#include "serve/population.hpp"

namespace coreda::serve {

namespace {

std::vector<adl::StepId> primary_routine(const adl::Adl& adl) {
  std::vector<adl::StepId> routine;
  for (const adl::AdlStep& s : adl.primary_routine().steps()) {
    routine.push_back(s.step_id());
  }
  return routine;
}

std::unique_ptr<planning::RoutineLearner> trained_learner(
    const adl::Adl& adl, std::uint64_t seed, int episodes,
    const std::vector<adl::StepId>& routine) {
  auto learner = std::make_unique<planning::RoutineLearner>(adl,
                                                            util::Rng(seed));
  for (int i = 0; i < episodes; ++i) learner->train_episode(routine);
  return learner;
}

SegmentStoreParams fleet_store_params(const ChaosFleetParams& p) {
  SegmentStoreParams sp;
  sp.dir = p.dir;
  sp.writers = p.shards;
  sp.rebase_every = p.rebase_every;
  return sp;
}

SegmentStoreParams serve_store_params(const ChaosServeParams& p) {
  SegmentStoreParams sp;
  sp.dir = p.dir;
  sp.writers = p.slots;  // one writer lane per pool slot
  sp.rebase_every = 4;
  return sp;
}

std::unique_ptr<SegmentStore> open_fleet_store(
    const ChaosFleetParams& p, const planning::RoutineLearner& donor,
    bool wipe) {
  if (p.dir.empty()) {
    throw std::invalid_argument("ChaosFleetSoak: dir is required");
  }
  if (wipe) std::filesystem::remove_all(p.dir);
  return std::make_unique<SegmentStore>(
      donor.state_codec().symbols(), donor.action_codec().tools(),
      donor.q().num_states(), donor.q().num_actions(),
      fleet_store_params(p));
}

std::unique_ptr<FleetEngine> build_fleet(const ChaosFleetParams& p,
                                         const adl::AdlLibrary& library,
                                         const adl::Adl& adl,
                                         SegmentStore& store,
                                         const planning::RoutineLearner&
                                             donor) {
  FleetEngineParams fp;
  fp.shards = p.shards;
  fp.slots_per_shard = p.slots_per_shard;
  fp.write_back_every = p.write_back_every;
  fp.system.learn_from_sessions = true;  // write-backs carry real deltas
  auto fleet =
      std::make_unique<FleetEngine>(library, adl, store, donor.q(), fp);
  fleet->reserve_users(p.users);
  for (std::size_t u = 0; u < p.users; ++u) {
    fleet->register_user(user_severity(u));
  }
  return fleet;
}

}  // namespace

// ---------------------------------------------------------------------------
// ChaosFleetSoak

ChaosFleetSoak::ChaosFleetSoak(ChaosFleetParams params,
                               faults::FaultPlan plan)
    : params_(std::move(params)),
      routine_(primary_routine(library_.tea_making())),
      donor_(trained_learner(library_.tea_making(), 17, 80, routine_)),
      store_(open_fleet_store(params_, *donor_, /*wipe=*/true)),
      fleet_(build_fleet(params_, library_, library_.tea_making(), *store_,
                         *donor_)),
      injector_(std::move(plan)),
      arrivals_(params_.users, params_.zipf, 777),
      committed_(params_.users, 0),
      scratch_(donor_->q().num_states(), donor_->q().num_actions()) {
  fleet_->attach_faults(injector_);
}

ChaosFleetSoak::~ChaosFleetSoak() = default;

ChaosRoundStats ChaosFleetSoak::check_round(ChaosFleetResult& result) {
  ChaosRoundStats rs;
  // Invariant 1 — committed versions only ever advance. A crashed or
  // corrupted append must abort *before* publishing, so the store's newest
  // valid record per user can never move backwards, round over round.
  for (std::uint64_t u = 0; u < params_.users; ++u) {
    const std::uint64_t now = store_->latest_version(u).value_or(0);
    if (now < committed_[u]) {
      ++rs.round_versions_lost;
    } else {
      committed_[u] = now;
    }
    if (now != 0) ++rs.committed_users;
  }
  // Invariant 2 — a restart recovers exactly what the live store serves.
  // Opening a second store on the same directory replays the crash-debris
  // scan a reboot would run: per user it must find the same newest version
  // AND load the full record chain (anchor + deltas) without a validation
  // error. The open is read-only, so checking every round is safe.
  SegmentStore reopened(donor_->state_codec().symbols(),
                        donor_->action_codec().tools(),
                        donor_->q().num_states(), donor_->q().num_actions(),
                        fleet_store_params(params_));
  for (std::uint64_t u = 0; u < params_.users; ++u) {
    const std::uint64_t live = store_->latest_version(u).value_or(0);
    const std::uint64_t back = reopened.latest_version(u).value_or(0);
    if (live != back) {
      ++rs.round_reopen_mismatches;
      continue;
    }
    if (back == 0) continue;
    try {
      if (reopened.load(u, scratch_).value_or(0) != back) {
        ++rs.round_reopen_mismatches;
      }
    } catch (const std::exception&) {
      ++rs.round_reopen_load_failures;
    }
  }
  result.committed_versions_lost += rs.round_versions_lost;
  result.reopen_mismatches += rs.round_reopen_mismatches;
  result.reopen_load_failures += rs.round_reopen_load_failures;
  return rs;
}

ChaosFleetResult ChaosFleetSoak::run(exec::TrialRunner& runner) {
  ChaosFleetResult result;
  const std::size_t total = params_.chaos_rounds + params_.tail_rounds;
  for (std::size_t round = 0; round < total; ++round) {
    for (std::size_t i = 0; i < params_.active; ++i) {
      fleet_->enqueue(arrivals_.next());
    }
    const exec::Stopwatch timer;
    result.report = fleet_->drain(runner);
    result.serve_seconds += timer.seconds();
    ChaosRoundStats rs = check_round(result);
    rs.epoch = injector_.epoch();
    rs.sessions = result.report.sessions;
    rs.dropped = result.report.dropped_sessions;
    rs.crashed_appends = result.report.crashed_appends;
    rs.radio_lost = result.report.radio_lost_frames;
    result.rounds.push_back(rs);
    injector_.advance_epoch();  // tail rounds run past every fault window
  }

  // Steady-state probe, serial so the number is independent of --jobs: the
  // fault window is closed and the tail rounds re-warmed every slot, so a
  // batch of ordinary sessions must not touch the heap. The soak's short
  // chain cap schedules real storage maintenance (segment rolls, chain
  // rebases) into some drains, so the probe takes the minimum over a few
  // drains: the drain the deterministic append sequence leaves
  // maintenance-free is the serving path's true allocation floor.
  // The drains run with or without a counter, so the report is the same.
  exec::TrialRunner probe_runner(1);
  constexpr std::size_t kProbe = 64;
  constexpr std::size_t kProbeDrains = 4;
  const auto count = params_.allocation_count;
  result.steady_state_allocs =
      count != nullptr ? static_cast<double>(kProbe)
                       : std::numeric_limits<double>::quiet_NaN();
  for (std::size_t d = 0; d < kProbeDrains; ++d) {
    for (std::size_t i = 0; i < kProbe; ++i) {
      fleet_->enqueue(arrivals_.next());
    }
    const std::uint64_t before = count != nullptr ? count() : 0;
    result.report = fleet_->drain(probe_runner);
    if (count != nullptr) {
      const double allocs = static_cast<double>(count() - before) / kProbe;
      result.steady_state_allocs =
          std::min(result.steady_state_allocs, allocs);
    }
  }

  for (const faults::Injector::SiteLog& site : injector_.log()) {
    if (site.name.ends_with(".pre_publish")) {
      result.injected_crashes += site.injections;
    } else if (site.name.ends_with(".corrupt")) {
      result.injected_corruptions += site.injections;
    }
  }
  result.invariant_violations = result.committed_versions_lost +
                                result.reopen_mismatches +
                                result.reopen_load_failures;
  return result;
}

// ---------------------------------------------------------------------------
// ChaosServeSoak

ChaosServeSoak::ChaosServeSoak(ChaosServeParams params,
                               faults::FaultPlan plan)
    : params_(std::move(params)), injector_(std::move(plan)) {
  if (params_.drifted > params_.users) {
    throw std::invalid_argument("ChaosServeSoak: drifted must be <= users");
  }
  const adl::Adl& tea = library_.tea_making();
  routine_ = primary_routine(tea);
  // Yesterday's routine, first two steps swapped — the stale tables the
  // drifted cohort starts from (the A10 drift scenario).
  std::vector<adl::StepId> stale_routine = routine_;
  std::swap(stale_routine[0], stale_routine[1]);
  donor_ = trained_learner(tea, 17, 80, routine_);
  stale_ = trained_learner(tea, 18, 120, stale_routine);

  if (!params_.dir.empty()) std::filesystem::remove_all(params_.dir);
  store_ = std::make_unique<PolicyStore>(*donor_, serve_store_params(params_));

  ServeEngineParams ep;
  ep.pool.slots = params_.slots;
  ep.pool.seed = 4242;
  ep.drift.threshold = params_.threshold;
  // Every (users/drifted)-th user is stale, spreading the cohort across
  // slots so recovery is not an artifact of one shard.
  is_drifted_.assign(params_.users, false);
  for (std::size_t i = 0; i < params_.drifted; ++i) {
    is_drifted_[i * (params_.users / params_.drifted)] = true;
  }
  for (std::size_t u = 0; u < params_.users; ++u) {
    // The calm cohort starts from the store's reference: the donor.
    if (is_drifted_[u]) {
      store_->add_user(stale_->q());
    } else {
      store_->add_user();
    }
  }
  engine_ = std::make_unique<ServeEngine>(library_, tea, *store_, ep);
  for (std::size_t u = 0; u < params_.users; ++u) {
    engine_->add_user(user_profile(u));
  }
  committed_.assign(params_.users, 0);
  engine_->attach_faults(injector_);
}

ChaosServeSoak::~ChaosServeSoak() = default;

ChaosServeResult ChaosServeSoak::run(exec::TrialRunner& runner) {
  ChaosServeResult result;
  const std::size_t total = params_.chaos_rounds + params_.tail_rounds;
  const std::size_t kNever = total + 1;
  std::vector<std::size_t> flagged_round(params_.users, kNever);
  std::vector<std::size_t> recovered_round(params_.users, kNever);
  std::vector<std::uint64_t> prompts_before(params_.users, 0);
  for (std::size_t round = 0; round < total; ++round) {
    for (std::size_t u = 0; u < params_.users; ++u) {
      engine_->enqueue(static_cast<UserId>(u), params_.burst);
    }
    const exec::Stopwatch timer;
    result.report = engine_->drain(runner);
    result.serve_seconds += timer.seconds();
    injector_.advance_epoch();
    ChaosServeRound rs;
    rs.flagged = result.report.flagged_users;
    rs.retrain_jobs = result.report.retrain.jobs;
    double drifted_ewma = 0.0;
    double calm_ewma = 0.0;
    double drifted_prompts = 0.0;
    for (std::size_t u = 0; u < params_.users; ++u) {
      // Invariant — the committed (in-memory) policy version never moves
      // backwards: an injected flush crash may defer persistence, but the
      // serving state it already staged must survive.
      const std::uint64_t v = store_->version(static_cast<UserId>(u));
      if (v < committed_[u]) {
        ++result.committed_versions_lost;
      } else {
        committed_[u] = v;
      }
      const ServeUserStats& s = result.report.users[u];
      const std::uint64_t prompts = s.prompts - prompts_before[u];
      prompts_before[u] = s.prompts;
      if (!is_drifted_[u]) {
        calm_ewma += s.prompt_ewma;
        continue;
      }
      drifted_ewma += s.prompt_ewma;
      drifted_prompts += static_cast<double>(prompts) /
                         static_cast<double>(params_.burst);
      if (s.needs_retraining && flagged_round[u] == kNever) {
        flagged_round[u] = round;
      }
      if (!s.needs_retraining && s.retrains > 0) {
        ++rs.recovered_now;
        if (recovered_round[u] == kNever) recovered_round[u] = round;
      }
    }
    // A mean over an empty cohort (no drifted user, or no calm one) is 0.
    const auto mean = [](double sum, std::size_t n) {
      return n == 0 ? 0.0 : sum / static_cast<double>(n);
    };
    rs.drifted_ewma = mean(drifted_ewma, params_.drifted);
    rs.calm_ewma = mean(calm_ewma, params_.users - params_.drifted);
    rs.drifted_prompts = mean(drifted_prompts, params_.drifted);
    result.rounds.push_back(rs);
  }

  for (std::size_t u = 0; u < params_.users; ++u) {
    if (!is_drifted_[u]) continue;
    if (recovered_round[u] < kNever) {
      ++result.recovered_users;
      result.recovery_sessions_max =
          std::max(result.recovery_sessions_max,
                   static_cast<std::uint64_t>(
                       (recovered_round[u] - flagged_round[u]) *
                       params_.burst));
    } else {
      ++result.unrecovered_users;
    }
  }

  // Invariant — restart recovery. After a clean flush (the fault window is
  // shut) a user above version 1 restores exactly its live version: a
  // crashed or torn append never published, so the reopen scan stops
  // before its debris, and the retry's record overwrote it. A user still
  // at version 1 was never staged, so it holds no record and restores
  // nothing.
  if (!params_.dir.empty()) {
    store_->flush_all();
    PolicyStore reopened(*donor_, serve_store_params(params_));
    for (std::size_t u = 0; u < params_.users; ++u) {
      const auto user = static_cast<UserId>(u);
      const std::uint64_t live = store_->version(user);
      const std::optional<std::uint64_t> back =
          reopened.restore(reopened.add_user());
      if (live > 1 ? back != live : back.has_value()) {
        ++result.reopen_mismatches;
      }
    }
  }

  result.aborted_retrains = result.report.retrain.aborted;
  result.crashed_stages = result.report.retrain.crashed_stages;
  result.invariant_violations = result.unrecovered_users +
                                result.committed_versions_lost +
                                result.reopen_mismatches;
  return result;
}

}  // namespace coreda::serve
