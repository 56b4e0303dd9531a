#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "faults/faults.hpp"
#include "planning/learner.hpp"
#include "rl/q_table.hpp"
#include "serve/segment_store.hpp"

namespace coreda::serve {

/// Index of a registered user in a PolicyStore / ServeEngine. Users are
/// registered once at startup and addressed by index on the serving hot
/// path — no string lookups per session.
using UserId = std::uint32_t;

/// Per-user versioned Q tables for the serving tier: one table, one
/// version and one dirty bit per user, of the reference planner's shape.
///
/// The store is the source of truth between sessions: a SystemPool slot
/// checks a user's table out (import_policy) and serves from it read-only.
/// Only a retrain stages a refreshed table, so a user's version counts the
/// tables staged for them: it reads 1 until the first retrain, and a warm
/// restart (restore()) resumes from the newest persisted version.
///
/// Persistence: an empty `SegmentStoreParams::dir` makes a memory-only
/// store (versions and staging work, nothing touches disk). Otherwise the
/// store owns a SegmentStore at that directory, store user id = UserId,
/// and every stage appends the table as one record at once — the record
/// format the fleet tier runs on. A table registered with add_user() is
/// not persisted until it is first staged. Size `writers` to the threads
/// staging concurrently: ServeEngine requires one writer per pool slot.
///
/// Thread-safety: add_user() and restore() are setup-phase only. stage()
/// and the per-user readers may be called concurrently for users of
/// *different* writer lanes (`user % writers`, the same rule the
/// ServeEngine shards slots by); concurrent calls for the same user are
/// the caller's bug.
class PolicyStore {
 public:
  /// Captures the table shape from `reference` (typically the
  /// offline-trained donor learner) and, when `segments.dir` is set, opens
  /// or creates the segment store under its step/tool vocabularies. Every
  /// user entry starts as a copy of the reference table (version 1).
  explicit PolicyStore(const planning::RoutineLearner& reference,
                       SegmentStoreParams segments = {});

  /// Retries every dirty entry's append (best effort — errors are
  /// swallowed, a destructor cannot throw; call flush_all() first to
  /// observe failures).
  ~PolicyStore();

  PolicyStore(const PolicyStore&) = delete;
  PolicyStore& operator=(const PolicyStore&) = delete;

  /// Registers a user starting from the reference table. Not callable
  /// while sessions are being served (entry references would move).
  UserId add_user();
  /// Registers a user with an explicit starting table (must match the
  /// reference shape; throws std::invalid_argument otherwise).
  UserId add_user(const rl::QTable& initial);

  std::size_t num_users() const noexcept { return entries_.size(); }
  /// The user's current table — what the next checkout will serve.
  const rl::QTable& q(UserId user) const;
  std::uint64_t version(UserId user) const;

  /// Copies `q` into the user's entry, bumps its version and, when
  /// segment-backed, appends it at once. Throws std::invalid_argument,
  /// entry unchanged, when `q` does not have the reference shape. When the
  /// append throws (a crash at the segment store's pre_publish_site()),
  /// the committed record is untouched and the entry keeps the new table
  /// and version but stays dirty, so flush() retries it. Allocation-free
  /// at steady state (a same-shape table copy and an in-place append).
  void stage(UserId user, const rl::QTable& q);

  /// Retries the user's append when their entry is dirty (no-op when
  /// memory-only or clean); throws like stage() when it fails again.
  void flush(UserId user);
  void flush_all();

  /// Warm restart: loads the user's newest committed table into the entry
  /// and adopts its version. Returns the version, or nullopt when the
  /// store is memory-only or holds nothing for this user. Throws
  /// std::runtime_error when the record chain fails validation (entry
  /// unchanged).
  std::optional<std::uint64_t> restore(UserId user);

  /// The backing segment store; null when memory-only. Its appends()
  /// counts the records stages published; tests arm its
  /// pre_publish_site() to inject crashes at the publish point.
  SegmentStore* segments() noexcept { return segments_.get(); }
  const SegmentStore* segments() const noexcept { return segments_.get(); }

  /// Arms the segment store's fault sites (crash + record-byte corruption)
  /// against `injector`'s plan; no-op when memory-only. Setup-phase only.
  void attach_faults(faults::Injector& injector) {
    if (segments_) segments_->attach_faults(injector);
  }

 private:
  struct Entry {
    rl::QTable q;
    std::uint64_t version = 1;
    bool dirty = false;  ///< staged, but the append has not published
  };

  Entry& entry(UserId user);
  const Entry& entry(UserId user) const;
  UserId add_entry(const rl::QTable& q);

  rl::QTable reference_;
  std::vector<Entry> entries_;
  std::unique_ptr<SegmentStore> segments_;
};

}  // namespace coreda::serve
