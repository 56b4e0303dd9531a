#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
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

struct PolicyStoreParams {
  /// Wear-aware write batching, mirroring the node EEPROM model: a policy
  /// write-back lands in the in-memory entry immediately, but only every
  /// `flush_every`-th staged write per user is persisted to disk (plus
  /// explicit flush() / flush_all() / destruction). A box serving 20
  /// sessions/user/day with the default batching writes each user's
  /// records ~2-3 times a day instead of 20 — the same k-fold wear
  /// reduction the nodes' EEPROM ring buys their flash.
  std::size_t flush_every = 8;
  /// Persistence. An empty `segments.dir` makes a memory-only store:
  /// versions and staging still work, nothing ever touches disk (the
  /// pure-serving configuration the benches use). Otherwise every flush
  /// appends the user's table as one record to the SegmentStore at that
  /// directory, store user id = PolicyStore UserId. Size
  /// `segments.writers` to the threads staging concurrently: ServeEngine
  /// requires one writer per pool slot.
  SegmentStoreParams segments{};
};

/// Per-user versioned Q tables for the serving tier: one table per user,
/// of the reference planner's shape.
///
/// The store is the source of truth between sessions: a SystemPool slot
/// checks a user's table out (import_policy), serves, and stages the table
/// back. Every stage bumps the user's version monotonically, so operators
/// can tell a stale snapshot from a current one, and a warm restart
/// (restore()) resumes from the last flushed version.
///
/// Staging, versioning and wear batching happen here, in memory; the bytes
/// land in a SegmentStore this store owns (when `params.segments.dir` is
/// set), one record per flushed table — the same record format the fleet
/// tier runs on.
///
/// Thread-safety: add_user() and restore() are setup-phase only. stage()
/// and the per-user readers may be called concurrently for users of
/// *different* writer lanes (`user % segments.writers`, the same rule the
/// ServeEngine shards slots by); concurrent calls for the same user are
/// the caller's bug. Aggregate counters (staged_writes, disk_writes) are
/// sums over per-user counters and are meant to be read after a drain, not
/// mid-flight.
class PolicyStore {
 public:
  /// Captures the table shape from `reference` (typically the
  /// offline-trained donor learner) and, when persistent, opens or creates
  /// the segment store under its step/tool vocabularies. Every user entry
  /// starts as a copy of the reference table (version 1).
  explicit PolicyStore(const planning::RoutineLearner& reference,
                       PolicyStoreParams params = {});

  /// Flushes every dirty entry (best effort — errors are swallowed, a
  /// destructor cannot throw; call flush_all() first to observe failures).
  ~PolicyStore();

  PolicyStore(const PolicyStore&) = delete;
  PolicyStore& operator=(const PolicyStore&) = delete;

  /// Registers a user starting from the reference table. Not callable
  /// while sessions are being served (entry references would move).
  UserId add_user(std::string name);
  /// Registers a user with an explicit starting table (must match the
  /// reference shape; throws std::invalid_argument otherwise).
  UserId add_user(std::string name, const rl::QTable& initial);

  std::size_t num_users() const noexcept { return entries_.size(); }
  const std::string& user_name(UserId user) const;
  /// The user's current table — what the next checkout will serve.
  const rl::QTable& q(UserId user) const;
  std::uint64_t version(UserId user) const;

  /// Write-back: copies `q` into the user's entry and bumps its version.
  /// Throws std::invalid_argument, entry unchanged, when `q` does not have
  /// the reference shape. Allocation-free at steady state (a same-shape
  /// table copy and an in-place record append); persists only when the
  /// wear batch fills (see PolicyStoreParams).
  void stage(UserId user, const rl::QTable& q);

  /// Persists the user's entry now (no-op when memory-only or clean).
  /// Throws when the record cannot be written — a crash at the segment
  /// store's pre_publish_site() leaves the committed record untouched and
  /// the entry still unflushed, so a later flush retries.
  void flush(UserId user);
  void flush_all();

  /// Warm restart: loads the user's newest committed table into the entry
  /// and adopts its version. Returns the version, or nullopt when the
  /// store is memory-only or holds nothing for this user. Throws
  /// std::runtime_error when the record chain fails validation (entry
  /// unchanged).
  std::optional<std::uint64_t> restore(UserId user);

  /// Total stage() calls across users — the writes the policy tier *asked*
  /// for...
  std::uint64_t staged_writes() const noexcept;
  /// ...and the records actually persisted — the wear the disk *saw*.
  std::uint64_t disk_writes() const noexcept;

  /// The backing segment store; null when memory-only. Tests arm its
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
    std::string name;
    rl::QTable q;
    std::uint64_t version = 1;
    std::uint64_t staged = 0;    ///< stage() calls on this entry
    std::uint64_t disk = 0;      ///< records persisted for this entry
    std::size_t unflushed = 0;   ///< stages since the last persisted write
  };

  Entry& entry(UserId user);
  const Entry& entry(UserId user) const;
  /// Registers `name` starting from `q`.
  UserId add_entry(std::string name, const rl::QTable& q);
  /// Appends the entry's table and version; wear is accounted only once
  /// the record has published.
  void persist(UserId user, Entry& e);

  PolicyStoreParams params_;
  rl::QTable reference_;
  std::vector<Entry> entries_;
  std::unique_ptr<SegmentStore> segments_;
};

}  // namespace coreda::serve
