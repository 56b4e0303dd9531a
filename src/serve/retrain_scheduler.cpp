#include "serve/retrain_scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "exec/trial_runner.hpp"

namespace coreda::serve {

RetrainScheduler::RetrainScheduler(const adl::Adl& adl, PolicyStore& store,
                                   planning::LearnerConfig learner_config,
                                   std::size_t slots)
    : store_(&store) {
  if (slots == 0) {
    throw std::invalid_argument("RetrainScheduler: slots must be >= 1");
  }
  slots_.reserve(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    // One warm trainer per slot, re-armed for every job via
    // begin_retraining. Transcript slots bound episode length, so
    // pre-sizing its traces and scratch here makes retrains alloc-free.
    Slot slot;
    slot.trainer = std::make_unique<planning::LaneTrainer>(
        adl, 1, learner_config, core::kMaxSessionSteps);
    slot.scratch = std::make_unique<rl::QTable>(slot.trainer->num_states(),
                                                slot.trainer->num_actions());
    slots_.push_back(std::move(slot));
  }
}

void RetrainScheduler::add_user() {
  Ring ring;
  ring.data.resize(kTranscriptRingCapacity * core::kMaxSessionSteps);
  ring.lengths.resize(kTranscriptRingCapacity, 0);
  rings_.push_back(std::move(ring));
  attempts_.push_back(0);
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
  const std::size_t len = std::min(steps.size(), core::kMaxSessionSteps);
  adl::StepId* slot = r.data.data() + r.head * core::kMaxSessionSteps;
  std::copy_n(steps.data(), len, slot);
  r.lengths[r.head] = static_cast<std::uint32_t>(len);
  r.head = (r.head + 1) % kTranscriptRingCapacity;
  r.count = std::min(r.count + 1, kTranscriptRingCapacity);
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
  const std::size_t cap = kTranscriptRingCapacity;
  const std::size_t slot = (r.head + cap - r.count + i) % cap;
  return {r.data.data() + slot * core::kMaxSessionSteps, r.lengths[slot]};
}

std::size_t RetrainScheduler::retrain_user(UserId user) {
  const Ring& r = ring(user);
  Slot& slot = slots_[user % slots_.size()];
  planning::LaneTrainer& trainer = *slot.trainer;
  // The retrain stream is keyed by the user, not the slot: the outcome
  // cannot depend on which other users the slot retrains in the drain.
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
  trainer.export_q(0, *slot.scratch);
  stage_retrained(user, *slot.scratch, slot);
  ++slot.counters.jobs;
  slot.counters.episodes += episodes;
  return episodes;
}

void RetrainScheduler::stage_retrained(UserId user, const rl::QTable& q,
                                       Slot& slot) {
  // Abort seam: the job dies after replay, before publishing — the user
  // keeps the stale table and the drift flag, and the engine's cooldown
  // retries on a later drain. The per-user attempt counter advances even on
  // an abort, so a retried job rolls a fresh decision.
  const std::uint32_t attempt = ++attempts_[user];
  if (abort_site_.should_inject(user, attempt)) {
    ++slot.counters.aborted;
    return;
  }
  try {
    store_->stage(user, q);
  } catch (const faults::InjectedCrash&) {
    // stage() updated the in-memory entry before the disk flush crashed:
    // the refreshed table IS live and versioned, only its persistence is
    // deferred to a later wear batch.
    ++slot.counters.crashed_stages;
  }
}

RetrainCounters RetrainScheduler::counters() const noexcept {
  RetrainCounters total;
  for (const Slot& slot : slots_) {
    total.jobs += slot.counters.jobs;
    total.episodes += slot.counters.episodes;
    total.aborted += slot.counters.aborted;
    total.crashed_stages += slot.counters.crashed_stages;
  }
  return total;
}

}  // namespace coreda::serve
