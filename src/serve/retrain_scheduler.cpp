#include "serve/retrain_scheduler.hpp"

#include <algorithm>
#include <stdexcept>

namespace coreda::serve {

RetrainScheduler::RetrainScheduler(const adl::Adl& adl, PolicyStore& store,
                                   planning::LearnerConfig learner_config,
                                   std::size_t lanes, RetrainParams params)
    : params_(params), store_(&store) {
  if (lanes == 0) {
    throw std::invalid_argument("RetrainScheduler: lanes must be >= 1");
  }
  if (params_.ring_capacity == 0 || params_.max_transcript_steps == 0) {
    throw std::invalid_argument(
        "RetrainScheduler: ring_capacity and max_transcript_steps must be "
        ">= 1");
  }
  if (params_.min_transcripts == 0) {
    throw std::invalid_argument(
        "RetrainScheduler: min_transcripts must be >= 1");
  }
  lane_queues_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    // One warm trainer per lane, re-armed for every job via
    // begin_retraining. Transcript slots bound episode length, so
    // pre-sizing its traces and scratch here makes retrains alloc-free.
    Lane lane;
    lane.trainer = std::make_unique<planning::LaneTrainer>(
        adl, 1, learner_config, params_.max_transcript_steps);
    lane.scratch = std::make_unique<rl::QTable>(lane.trainer->num_states(),
                                                lane.trainer->num_actions());
    lane_queues_.push_back(std::move(lane));
  }
}

void RetrainScheduler::add_user() {
  Ring ring;
  ring.data.resize(params_.ring_capacity * params_.max_transcript_steps);
  ring.lengths.resize(params_.ring_capacity, 0);
  rings_.push_back(std::move(ring));
  attempts_.push_back(0);
  // Worst case every user queues one job on the same lane: reserving the
  // user count keeps enqueue() allocation-free from here on.
  for (Lane& lane : lane_queues_) lane.queue.reserve(rings_.size());
  retrained_.reserve(rings_.size());
}

RetrainScheduler::Ring& RetrainScheduler::ring(UserId user) {
  if (user >= rings_.size()) {
    throw std::out_of_range("RetrainScheduler: unknown user id " +
                            std::to_string(user));
  }
  return rings_[user];
}

const RetrainScheduler::Ring& RetrainScheduler::ring(UserId user) const {
  return const_cast<RetrainScheduler*>(this)->ring(user);
}

void RetrainScheduler::record(UserId user,
                              std::span<const adl::StepId> steps) {
  Ring& r = ring(user);
  const std::size_t len =
      std::min(steps.size(), params_.max_transcript_steps);
  adl::StepId* slot = r.data.data() + r.head * params_.max_transcript_steps;
  std::copy_n(steps.data(), len, slot);
  r.lengths[r.head] = static_cast<std::uint32_t>(len);
  r.head = (r.head + 1) % params_.ring_capacity;
  r.count = std::min(r.count + 1, params_.ring_capacity);
}

std::size_t RetrainScheduler::transcripts(UserId user) const {
  return ring(user).count;
}

std::span<const adl::StepId> RetrainScheduler::transcript(
    UserId user, std::size_t i) const {
  const Ring& r = ring(user);
  if (i >= r.count) {
    throw std::out_of_range("RetrainScheduler: transcript index " +
                            std::to_string(i) + " out of range");
  }
  const std::size_t cap = params_.ring_capacity;
  const std::size_t slot = (r.head + cap - r.count + i) % cap;
  return {r.data.data() + slot * params_.max_transcript_steps,
          r.lengths[slot]};
}

void RetrainScheduler::enqueue(UserId user) {
  (void)ring(user);  // validate the id
  lane_queues_[lane_for(user)].queue.push_back(user);
}

std::size_t RetrainScheduler::queued() const noexcept {
  std::size_t total = 0;
  for (const Lane& lane : lane_queues_) total += lane.queue.size();
  return total;
}

std::size_t RetrainScheduler::retrain_user(UserId user) {
  const Ring& r = ring(user);
  Lane& lane = lane_queues_[lane_for(user)];
  planning::LaneTrainer& trainer = *lane.trainer;
  // The retrain stream is keyed by the user, not the trial: the outcome
  // cannot depend on which lane (or how many) the job shares a drain with.
  trainer.begin_retraining(0, store_->q(user),
                           util::Rng(exec::trial_seed(kRetrainSeed, user)));
  std::size_t episodes = 0;
  for (std::size_t pass = 0; pass < kRetrainReplayPasses; ++pass) {
    for (std::size_t i = 0; i < r.count; ++i) {
      trainer.queue_episode(0, transcript(user, i));
      trainer.train_queued();
      ++episodes;
    }
  }
  // Stage the refreshed table back: a new version for the store, flushed to
  // disk on the same wear batch as any serve-path write-back.
  trainer.export_q(0, *lane.scratch);
  stage_retrained(user, *lane.scratch);
  return episodes;
}

bool RetrainScheduler::stage_retrained(UserId user, const rl::QTable& q) {
  // Abort seam: the job dies after replay, before publishing — the user
  // keeps the stale table and the drift flag, and the engine's cooldown
  // retries on a later drain. The per-user attempt counter advances even on
  // an abort, so a retried job rolls a fresh decision.
  const std::uint32_t attempt = ++attempts_[user];
  if (abort_site_.should_inject(user, attempt)) {
    aborted_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  try {
    store_->stage(user, q);
  } catch (const faults::InjectedCrash&) {
    // stage() updated the in-memory entry before the disk flush crashed:
    // the refreshed table IS live and versioned, only its persistence is
    // deferred to a later wear batch.
    crashed_stages_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

std::span<const UserId> RetrainScheduler::drain(exec::TrialRunner& runner) {
  retrained_.clear();
  if (queued() == 0) return retrained_;

  // One trial per lane, like the engine's serve drain: a lane's jobs run
  // serially in enqueue order on whichever worker takes the trial. Jobs of
  // one lane share that lane's trainer; jobs of different lanes touch
  // disjoint trainers, rings and store entries.
  std::vector<std::size_t> lane_episodes(lane_queues_.size(), 0);
  runner.run(lane_queues_.size(), /*base_seed=*/0,
             [&](exec::TrialContext& ctx) -> char {
               for (const UserId user : lane_queues_[ctx.index].queue) {
                 lane_episodes[ctx.index] += retrain_user(user);
               }
               return 0;
             });

  for (std::size_t lane = 0; lane < lane_queues_.size(); ++lane) {
    for (const UserId user : lane_queues_[lane].queue) {
      retrained_.push_back(user);
      ++counters_.jobs;
    }
    counters_.episodes += lane_episodes[lane];
    lane_queues_[lane].queue.clear();
  }
  return retrained_;
}

}  // namespace coreda::serve
