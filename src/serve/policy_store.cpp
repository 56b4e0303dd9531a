#include "serve/policy_store.hpp"

#include <array>
#include <stdexcept>

namespace coreda::serve {
namespace {

std::vector<const planning::RoutineLearner*> planners_of(
    const core::HomeDeployment& home) {
  std::vector<const planning::RoutineLearner*> planners;
  for (const adl::Adl& adl : home.adls()) {
    planners.push_back(&home.learner(adl.name()));
  }
  return planners;
}

}  // namespace

PolicyStore::PolicyStore(const planning::RoutineLearner& reference,
                         PolicyStoreParams params)
    : PolicyStore(std::array{&reference}, std::move(params)) {}

PolicyStore::PolicyStore(const core::HomeDeployment& reference,
                         PolicyStoreParams params)
    : PolicyStore(planners_of(reference), std::move(params)) {}

PolicyStore::PolicyStore(
    std::span<const planning::RoutineLearner* const> reference,
    PolicyStoreParams params)
    : params_(std::move(params)) {
  if (params_.flush_every == 0) {
    throw std::invalid_argument("PolicyStore: flush_every must be >= 1");
  }
  std::vector<TableSchema> tables;
  for (const planning::RoutineLearner* learner : reference) {
    reference_.push_back(learner->q());
    tables.push_back(TableSchema{learner->state_codec().symbols(),
                                 learner->action_codec().tools(),
                                 learner->q().num_states(),
                                 learner->q().num_actions()});
  }
  if (!params_.segments.dir.empty()) {
    segments_ =
        std::make_unique<SegmentStore>(std::move(tables), params_.segments);
  }
}

PolicyStore::~PolicyStore() {
  try {
    flush_all();
  } catch (...) {
    // Destructors must not throw; an unflushed tail only costs the stages
    // since the last flush, exactly like a power cut would.
  }
}

UserId PolicyStore::add_user(std::string name) {
  if (segments_) segments_->grow_users(entries_.size() + 1);
  entries_.push_back(Entry{std::move(name), reference_});
  return static_cast<UserId>(entries_.size() - 1);
}

UserId PolicyStore::add_user(std::string name, const rl::QTable& initial) {
  if (reference_.size() != 1 ||
      initial.num_states() != reference_[0].num_states() ||
      initial.num_actions() != reference_[0].num_actions()) {
    throw std::invalid_argument("PolicyStore::add_user: table shape differs "
                                "from the reference policy");
  }
  if (segments_) segments_->grow_users(entries_.size() + 1);
  entries_.push_back(Entry{std::move(name), {initial}});
  return static_cast<UserId>(entries_.size() - 1);
}

PolicyStore::Entry& PolicyStore::entry(UserId user) {
  if (user >= entries_.size()) {
    throw std::out_of_range("PolicyStore: unknown user id " +
                            std::to_string(user));
  }
  return entries_[user];
}

const PolicyStore::Entry& PolicyStore::entry(UserId user) const {
  return const_cast<PolicyStore*>(this)->entry(user);
}

const std::string& PolicyStore::user_name(UserId user) const {
  return entry(user).name;
}

const rl::QTable& PolicyStore::q(UserId user, std::size_t table) const {
  return entry(user).set.at(table);
}

std::uint64_t PolicyStore::version(UserId user) const {
  return entry(user).version;
}

void PolicyStore::stage(UserId user, std::span<const rl::QTable* const> set) {
  Entry& e = entry(user);
  if (set.size() != e.set.size()) {
    throw std::invalid_argument("PolicyStore::stage: policy set size mismatch");
  }
  for (std::size_t t = 0; t < set.size(); ++t) {
    if (set[t]->num_states() != e.set[t].num_states() ||
        set[t]->num_actions() != e.set[t].num_actions()) {
      throw std::invalid_argument("PolicyStore::stage: table shape mismatch");
    }
  }
  // Same shapes: each vector assign reuses capacity, no allocation.
  for (std::size_t t = 0; t < set.size(); ++t) e.set[t] = *set[t];
  ++e.version;
  ++e.staged;
  ++e.unflushed;
  if (segments_ && e.unflushed >= params_.flush_every) persist(user, e);
}

void PolicyStore::flush(UserId user) {
  Entry& e = entry(user);
  if (segments_ && e.unflushed != 0) persist(user, e);
}

void PolicyStore::flush_all() {
  for (UserId u = 0; u < entries_.size(); ++u) flush(u);
}

void PolicyStore::persist(UserId user, Entry& e) {
  // The append publishes the record (magic written last) or throws with the
  // committed chain untouched; only a published record costs wear.
  segments_->append(user, e.set, e.version);
  ++e.disk;
  e.unflushed = 0;
}

std::optional<std::uint64_t> PolicyStore::restore(UserId user) {
  Entry& e = entry(user);
  if (!segments_) return std::nullopt;
  // load() writes the set only after the whole chain validates, and not at
  // all on a miss, so the entry is its own staging buffer.
  const std::optional<std::uint64_t> version = segments_->load(user, e.set);
  if (version) {
    e.version = *version;
    e.unflushed = 0;
  }
  return version;
}

std::size_t PolicyStore::restore_all() {
  std::size_t restored = 0;
  for (UserId u = 0; u < entries_.size(); ++u) {
    try {
      if (restore(u)) ++restored;
    } catch (const std::runtime_error&) {
      ++rejected_;  // corrupt record: the entry keeps its set
    }
  }
  return restored;
}

std::uint64_t PolicyStore::staged_writes() const noexcept {
  std::uint64_t total = 0;
  for (const Entry& e : entries_) total += e.staged;
  return total;
}

std::uint64_t PolicyStore::disk_writes() const noexcept {
  std::uint64_t total = 0;
  for (const Entry& e : entries_) total += e.disk;
  return total;
}

}  // namespace coreda::serve
