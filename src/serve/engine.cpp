#include "serve/engine.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

#include "serve/population.hpp"

namespace coreda::serve {

ServeEngine::ServeEngine(const adl::AdlLibrary& library, const adl::Adl& adl,
                         PolicyStore& store, ServeEngineParams params)
    : params_(params),
      store_(&store),
      pool_(store, params.pool, library, adl),
      retrainer_(adl, store, params.pool.system.learner, pool_.slots()),
      by_slot_(pool_.slots()),
      results_(pool_.slots()) {
  // FleetEngine's rule, for the same reason: slot trials' retrain stages
  // append concurrently, keyed by user % slots, so each of them must own a
  // writer lane of its own.
  if (store.segments() != nullptr &&
      store.segments()->writers() != pool_.slots()) {
    throw std::invalid_argument(
        "ServeEngine: a segment-backed store needs writers == pool slots — "
        "concurrent slot trials must append through disjoint writer lanes");
  }
  for (core::SessionResult& r : results_) {
    r.observed_steps.reserve(core::kMaxSessionSteps);
  }
}

UserId ServeEngine::add_user(patient::PatientProfile profile) {
  // Engine user ids and store user ids must coincide (the pool checks out
  // by the shared id), so the engine either adopts the next store entry or
  // creates it.
  const UserId user = static_cast<UserId>(profiles_.size());
  if (user == store_->num_users()) {
    store_->add_user();
  } else if (user > store_->num_users()) {
    throw std::invalid_argument(
        "ServeEngine::add_user: store is missing earlier users");
  }
  profiles_.push_back(std::move(profile));
  stats_.emplace_back();
  retrainer_.add_user();
  return user;
}

void ServeEngine::enqueue(UserId user, std::size_t sessions) {
  if (user >= profiles_.size()) {
    throw std::out_of_range("ServeEngine::enqueue: unknown user id " +
                            std::to_string(user));
  }
  if (sessions == 0) return;
  by_slot_[pool_.slot_for(user)].push_back(Request{user, sessions});
}

std::size_t ServeEngine::queued() const noexcept {
  std::size_t total = 0;
  for (const std::vector<Request>& slot : by_slot_) {
    for (const Request& r : slot) total += r.sessions;
  }
  return total;
}

const ServeUserStats& ServeEngine::user_stats(UserId user) const {
  if (user >= stats_.size()) {
    throw std::out_of_range("ServeEngine::user_stats: unknown user id " +
                            std::to_string(user));
  }
  return stats_[user];
}

void ServeEngine::serve_one(UserId user, core::SessionResult& result) {
  pool_.serve_session(user, profiles_[user], {}, result);
  // Completed sessions feed the user's transcript ring — what the user
  // actually did is the ground truth a retrain replays.
  if (result.completed) {
    retrainer_.record(user, result.observed_steps);
  }
  ServeUserStats& s = stats_[user];
  const auto prompts = static_cast<double>(result.prompts_total);
  // Seed the EWMA with the first observation instead of decaying up from
  // zero — otherwise a warmup-length burst of prompts reads as calm.
  s.prompt_ewma = (s.sessions == 0)
                      ? prompts
                      : s.prompt_ewma +
                            kPromptEwmaAlpha * (prompts - s.prompt_ewma);
  ++s.sessions;
  s.completed += result.completed ? 1 : 0;
  s.prompts += result.prompts_total;
  s.checksum += session_checksum(result);
  if (s.sessions >= kDriftWarmupSessions &&
      s.prompt_ewma >= params_.drift.threshold) {
    s.needs_retraining = true;  // sticky until a retrain recovers the EWMA
  }
  // Redeploy verified: the post-retrain policy pulled the EWMA back under
  // the threshold, so the loop for this drift episode is closed.
  if (s.awaiting_recovery && s.prompt_ewma < params_.drift.threshold) {
    s.needs_retraining = false;
    s.awaiting_recovery = false;
  }
}

bool ServeEngine::retrain_due(UserId user) const {
  const ServeUserStats& s = stats_[user];
  if (!s.needs_retraining) return false;
  if (!retrainer_.has_enough_transcripts(user)) return false;
  // After a retrain the refreshed policy gets kRetrainCooldownSessions of
  // serving to move the EWMA before another job may run for the user.
  return s.retrains == 0 ||
         s.sessions - s.last_retrain_session >= kRetrainCooldownSessions;
}

void ServeEngine::attach_faults(faults::Injector& injector) {
  injector.attach(stall_site_);
  injector.attach(radio_site_);
  store_->attach_faults(injector);
  retrainer_.attach_faults(injector);
  pool_.arm_fault_bursts(radio_site_);
}

void ServeEngine::retrain_stage(std::size_t slot) {
  // The slot's users in id order. Everything a job reads or writes is its
  // user's own — stats, ring, store entry and writer lane, the slot's
  // trainer, an RNG stream and fault ticks keyed by the user — so running
  // it right after the slot's serving gives every other slot's trial
  // nothing to race on. An aborted job is invalidated and cooled down like
  // one that staged: the retry waits out kRetrainCooldownSessions.
  for (std::size_t u = slot; u < stats_.size(); u += pool_.slots()) {
    const auto user = static_cast<UserId>(u);
    if (!retrain_due(user)) continue;
    retrainer_.retrain_user(user);
    // Residency would keep serving the pre-retrain table from the slot.
    pool_.invalidate(user);
    ServeUserStats& s = stats_[user];
    ++s.retrains;
    s.awaiting_recovery = true;
    s.last_retrain_session = s.sessions;
  }
}

ServeReport ServeEngine::drain(exec::TrialRunner& runner) {
  ++drains_;
  // The queue is already bucketed by home slot (enqueue order preserved
  // within a slot). Each slot is one trial: its users' sessions run
  // serially, in order, against the slot's persistent scratch result, and
  // then the slot's retrain stage closes the loop for its flagged users —
  // on whichever worker picks the trial up, the same result at any --jobs.
  runner.run(pool_.slots(), /*base_seed=*/0,
             [&](exec::TrialContext& ctx) -> char {
               // Stalled slot: injected scheduling delay, wall-clock only.
               const std::uint64_t stall =
                   stall_site_.stall_ns(ctx.index, drains_);
               if (stall != 0) {
                 std::this_thread::sleep_for(std::chrono::nanoseconds(stall));
               }
               core::SessionResult& result = results_[ctx.index];
               for (const Request& r : by_slot_[ctx.index]) {
                 for (std::size_t i = 0; i < r.sessions; ++i) {
                   serve_one(r.user, result);
                 }
               }
               by_slot_[ctx.index].clear();  // keeps its capacity
               retrain_stage(ctx.index);
               return 0;  // results land in stats_ (disjoint per slot)
             });

  ServeReport report;
  report.users = stats_;
  for (const ServeUserStats& s : stats_) {
    report.sessions += s.sessions;
    report.completed += s.completed;
    report.prompts += s.prompts;
    report.checksum += s.checksum;
    report.flagged_users += s.needs_retraining ? 1 : 0;
  }
  report.pool_hits = pool_.hits();
  report.policy_swaps = pool_.swaps();
  report.retrain = retrainer_.counters();
  return report;
}

}  // namespace coreda::serve
