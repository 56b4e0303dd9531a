#include "serve/policy_store.hpp"

#include <stdexcept>
#include <string>

namespace coreda::serve {

PolicyStore::PolicyStore(const planning::RoutineLearner& reference,
                         SegmentStoreParams segments)
    : reference_(reference.q()) {
  if (!segments.dir.empty()) {
    segments_ = std::make_unique<SegmentStore>(
        reference.state_codec().symbols(), reference.action_codec().tools(),
        reference_.num_states(), reference_.num_actions(),
        std::move(segments));
  }
}

PolicyStore::~PolicyStore() {
  try {
    flush_all();
  } catch (...) {
    // Destructors must not throw; a dirty entry only loses the stage whose
    // append crashed, exactly like a power cut would.
  }
}

UserId PolicyStore::add_user() { return add_entry(reference_); }

UserId PolicyStore::add_user(const rl::QTable& initial) {
  if (initial.num_states() != reference_.num_states() ||
      initial.num_actions() != reference_.num_actions()) {
    throw std::invalid_argument("PolicyStore::add_user: table shape differs "
                                "from the reference policy");
  }
  return add_entry(initial);
}

UserId PolicyStore::add_entry(const rl::QTable& q) {
  if (segments_) segments_->grow_users(entries_.size() + 1);
  entries_.push_back(Entry{q});
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

const rl::QTable& PolicyStore::q(UserId user) const { return entry(user).q; }

std::uint64_t PolicyStore::version(UserId user) const {
  return entry(user).version;
}

void PolicyStore::stage(UserId user, const rl::QTable& q) {
  Entry& e = entry(user);
  if (q.num_states() != e.q.num_states() ||
      q.num_actions() != e.q.num_actions()) {
    throw std::invalid_argument("PolicyStore::stage: table shape mismatch");
  }
  e.q = q;  // same shape: the vector assign reuses capacity, no allocation
  ++e.version;
  e.dirty = true;
  flush(user);
}

void PolicyStore::flush(UserId user) {
  Entry& e = entry(user);
  if (!segments_ || !e.dirty) return;
  // The append publishes the record (magic written last) or throws with
  // the committed chain untouched and the entry still dirty.
  segments_->append(user, e.q, e.version);
  e.dirty = false;
}

void PolicyStore::flush_all() {
  for (UserId u = 0; u < entries_.size(); ++u) flush(u);
}

std::optional<std::uint64_t> PolicyStore::restore(UserId user) {
  Entry& e = entry(user);
  if (!segments_) return std::nullopt;
  // load() writes the table only after the whole chain validates, and not
  // at all on a miss, so the entry is its own staging buffer.
  const std::optional<std::uint64_t> version = segments_->load(user, e.q);
  if (version) {
    e.version = *version;
    e.dirty = false;
  }
  return version;
}

}  // namespace coreda::serve
