#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "adl/types.hpp"
#include "faults/faults.hpp"
#include "rl/q_table.hpp"
#include "serve/user_index.hpp"

namespace coreda::serve {

// ---------------------------------------------------------------------------
// "coreda-policy store" — the one on-disk format for per-user policies: a
// memory-mapped, segmented, append-only store of one Q table per user.
//
// One directory holds every user's table:
//
//   store.meta            "CRDASTR1", format version (3), segment size, the
//                         table count (always 1), then the table's shape
//                         (steps, tools, states, actions) and step + tool
//                         vocabularies, and a checksum64 trailer over every
//                         preceding byte (atomic temp+rename publish)
//   seg-w<writer>-<seq>.seg   mmap'd append-only segments
//   seg-w<writer>.spare       a reclaimed segment kept mapped for the
//                             writer's next roll; open, scan and inspect
//                             never parse it as a segment
//
// Every checksum below is util::wire::checksum64: any change confined to
// one 8-byte word of the hashed range is always detected. A store.meta of
// another format version (format 1 hashed with FNV-1a 64; format 2 held
// exactly one table and no count) is refused at open by its version field,
// before its trailer is checked. Format 3's count field is always 1: a
// store.meta of any other count is refused at open, and inspect reports it
// as a meta mismatch.
//
// Segment format ("CRDASEG2", all integers little-endian u64, doubles as
// LE IEEE-754 bit patterns) — variable-stride records, 8-byte aligned:
//
//   header   40 bytes  magic "CRDASEG2", writer, seq, file_bytes,
//                      records (advisory valid-record count, updated in
//                      place after each publish so a reopen can pre-size
//                      the user index before scanning)
//
// Every record starts with the same 32-byte prefix:
//
//   rec_magic  u64  "CRDAREC2" (anchor) / "CRDADEL2" (delta) — written
//                   LAST: the atomic publish
//   len        u64  total record bytes (multiple of 8)
//   user       u64
//   version    u64
//
// Anchor — the whole table (len = 8 * (6 + q_count)):
//
//   q_count    u64  states x actions
//   q          q_count x f64, row-major
//   checksum   u64  checksum64 over bytes [8, len - 8)
//
// Delta — the rows that changed since the parent record
// (len = 8 * (8 + n_rows * (1 + actions))):
//
//   parent_version u64  version the delta applies on top of
//   parent_off     u64  byte offset of the parent record in THIS segment
//   n_rows         u64  changed Q rows (at most the table's states)
//   rows           n_rows x (u64 row_index + actions x f64)
//   checksum       u64  checksum64 over bytes [8, len - 8)
//
// These records are byte for byte store format 2's: format 3 changed only
// store.meta.
//
// A user's records form a chain: each delta back-points to that user's
// previous record via parent_off. Chains never span segments — the first
// record a user writes into a segment is always an anchor — so recovery,
// compaction and the back-pointer stay segment-local. The writer rebases
// (writes a fresh anchor) every `rebase_every` records per user, bounding
// chain-replay cost and tail-corruption blast radius, and compaction
// rewrites every live user as a fresh anchor.
//
// Segment life cycle: the moment an append leaves one of its writer's
// non-tail segments with no index entry pointing into it, nothing a load
// can reach lives there (chains are segment-local), so the segment is
// reclaimed without copying anything: renamed to the writer's spare, or
// unlinked when the writer already has one. The next roll recycles the
// spare instead of creating a file — scrub the previous life to zeros,
// write the new header, rename it into place — so a crash at any step
// leaves either an ignored spare or a valid empty segment, and the
// recycled bytes equal a fresh segment's after the same appends. The
// spare is unlinked when the store closes; a spare left by a crash is
// ignored, and the writer's next reclaim renames over it. Compaction
// remains for chains whose superseded records sit in partly-live segments.
//
// Crash story: body + checksum land first, the magic last, so a crashed
// append leaves a tail whose magic is still zero. The scan-on-open stops at
// the first invalid record — the longest valid prefix, exactly the durable
// state before the crash — and the next append overwrites the torn tail.
// (Variable strides make skip-and-continue unsound: a record after a
// corrupt one cannot be located, and a delta after a corrupt parent cannot
// be applied.)
//
// Writer partitioning: user `u` belongs to writer `u % writers`; each
// writer owns its segment chain, its tail, and its own flat open-addressed
// UserIndex (one slab, ~9 bytes/user — see user_index.hpp for why the
// index must be per-lane). Concurrent shard drains therefore append to
// disjoint segments and probe disjoint slabs — no locks on the hot path.
// The only cross-writer traffic is the per-segment live/reachable counters
// (a record superseded by another writer after a writers-count change
// decrements a foreign segment). The live decrement is an acq_rel RMW and
// a writer's last touch of the old segment, so the owner that takes live
// to zero sees every earlier touch before it reclaims; a foreign writer
// that empties a segment leaves it to compaction.
// ---------------------------------------------------------------------------

/// store.meta format version this build writes and reads (the version
/// field follows the magic; any other value is refused at open).
inline constexpr std::uint64_t kMetaFormatVersion = 3;

/// The 8 magic bytes opening store.meta / segments / records.
inline constexpr char kStoreMetaMagic[8] = {'C', 'R', 'D', 'A',
                                            'S', 'T', 'R', '1'};
inline constexpr char kSegmentHeaderMagic[8] = {'C', 'R', 'D', 'A',
                                                'S', 'E', 'G', '2'};
inline constexpr char kAnchorMagic[8] = {'C', 'R', 'D', 'A',
                                         'R', 'E', 'C', '2'};
inline constexpr char kDeltaMagic[8] = {'C', 'R', 'D', 'A',
                                        'D', 'E', 'L', '2'};

/// The table a store holds: its shape and the vocabularies its rows and
/// columns are keyed by (a planner's state symbols and action tools).
struct TableSchema {
  std::vector<adl::StepId> steps;
  std::vector<adl::ToolId> tools;
  std::size_t num_states = 0;
  std::size_t num_actions = 0;

  bool operator==(const TableSchema&) const = default;
};

struct SegmentStoreParams {
  /// Store directory (required). Created when missing; an existing store
  /// is validated against the constructor's table and its index rebuilt by
  /// scanning every segment.
  std::string dir;
  /// Target segment file size. Capped at 8 MiB: the flat user index packs
  /// a record offset into 20 bits of offset/8. A table bigger than the
  /// target still stores (a segment always fits at least one anchor).
  std::size_t segment_bytes = std::size_t{1} << 20;
  /// Writer lanes: user `u` appends via writer `u % writers`. Size this to
  /// the number of threads appending concurrently (pool slots / fleet
  /// shards). Determinism note: the records a store holds are independent
  /// of `writers`; only their distribution across segment files changes.
  std::size_t writers = 1;
  /// Compact a writer's chain when unreachable records exceed this
  /// fraction of its records (and the chain has at least
  /// compact_min_records).
  double compact_dead_ratio = 0.5;
  std::size_t compact_min_records = 64;
  /// Maximum records per user chain (1 anchor + rebase_every-1 deltas)
  /// before the next append rebases to a fresh anchor. Clamped to [1, 63].
  /// 1 disables deltas entirely.
  std::size_t rebase_every = 16;
};

/// The raw record store: append / load / scan / compact. Knows nothing of
/// staging or wear batching — PolicyStore (policy_store.hpp) layers the
/// serving tier's protocol on top, and FleetEngine drives it directly (at
/// fleet scale there is no resident per-user table to stage).
class SegmentStore {
 public:
  /// Opens (or creates) the store at params.dir for tables of the given
  /// shape and vocabularies. Throws std::runtime_error when an existing
  /// store.meta disagrees (another shape or vocabulary, or a table count
  /// other than 1), std::invalid_argument on degenerate params or a
  /// zero-dimension table.
  SegmentStore(std::span<const adl::StepId> steps,
               std::span<const adl::ToolId> tools, std::size_t num_states,
               std::size_t num_actions, SegmentStoreParams params);
  ~SegmentStore();

  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  /// Pre-sizes every writer lane's user index to exactly `users` (setup
  /// phase only — concurrent appends must never grow a slab). Appending
  /// for a user id >= the reserved count throws.
  void reserve_users(std::uint64_t users) {
    size_lanes(users, &UserIndex::reserve);
  }
  /// reserve_users() for one-at-a-time registration: a lane that must grow
  /// at least doubles its slab, so registering n users rehashes O(log n)
  /// times. Inside an earlier reservation it is one compare: every lane is
  /// already sized for `users`. Setup phase only.
  void grow_users(std::uint64_t users) {
    if (users > sized_users_) size_lanes(users, &UserIndex::grow);
  }

  /// Durably records (user, version, q). When the user's previous record
  /// lives in the current tail segment and its chain is short enough, this
  /// appends a changed-row delta; otherwise a full anchor. Steady-state
  /// allocation-free: the record lands straight in the tail mapping; only
  /// a roll onto a fresh file or a compaction allocates (reclaiming a
  /// segment and recycling the spare do not). Throws std::runtime_error on
  /// a shape mismatch or I/O failure. Safe to call concurrently for users
  /// of *different* writers (`user % writers()`).
  void append(std::uint64_t user, const rl::QTable& q, std::uint64_t version);

  /// Version of the newest valid record for `user`, nullopt when none.
  std::optional<std::uint64_t> latest_version(std::uint64_t user) const;

  /// Loads the newest table for `user` into `q` (of the store's shape):
  /// validates the user's whole record chain (anchor + deltas), then
  /// applies it. Returns its version, or nullopt when the store holds
  /// nothing for this user. Throws std::runtime_error when any chain record
  /// fails validation (bit rot after the open-time scan); `q` is not
  /// written until the full chain validates. Allocation-free.
  std::optional<std::uint64_t> load(std::uint64_t user, rl::QTable& q) const;

  std::size_t writers() const noexcept { return params_.writers; }
  std::size_t num_segments() const noexcept;
  /// Records that are the newest for some user / superseded-or-invalid.
  /// Chain parents of a live record count as neither live nor dead until
  /// the chain is rebased (they are still reachable).
  std::uint64_t live_records() const noexcept;
  std::uint64_t dead_records() const noexcept;
  std::uint64_t appends() const noexcept {
    return appends_.load(std::memory_order_relaxed);
  }
  /// Bytes written by append() — anchors + deltas, excluding compaction
  /// rewrites. appended_bytes()/appends() is the per-retrain write traffic
  /// the fleet bench gates.
  std::uint64_t appended_bytes() const noexcept {
    return appended_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t anchor_records_written() const noexcept {
    return anchor_records_.load(std::memory_order_relaxed);
  }
  std::uint64_t delta_records_written() const noexcept {
    return delta_records_.load(std::memory_order_relaxed);
  }
  /// Bytes one full anchor record (the whole table) takes — the denominator
  /// of the delta format's write savings.
  std::size_t anchor_record_bytes() const noexcept { return anchor_bytes_; }
  /// Total bytes across every writer lane's index slab (the resident
  /// index cost; divide by users for the gated index_bytes_per_user).
  std::size_t index_slab_bytes() const noexcept;
  /// Valid records seen by the open-time scan (cold-start work measure).
  std::uint64_t scanned_records() const noexcept { return scanned_records_; }
  std::uint64_t compactions() const noexcept {
    return compactions_.load(std::memory_order_relaxed);
  }
  /// Segments an append emptied and reclaimed without a copy (kept as the
  /// writer's spare or unlinked). Compaction's unlinks are not counted.
  std::uint64_t reclaimed_segments() const noexcept {
    return reclaimed_.load(std::memory_order_relaxed);
  }
  const SegmentStoreParams& params() const noexcept { return params_; }
  std::size_t num_states() const noexcept { return table_.num_states; }
  std::size_t num_actions() const noexcept { return table_.num_actions; }

  /// Every user with a record, ascending (offline tooling and tests).
  std::vector<std::uint64_t> user_ids() const;

  /// Crash seam: evaluated with the segment path after the record body +
  /// checksum are written but before the magic publishes the record. A
  /// crash here — a throwing test hook or a planned faults::InjectedCrash —
  /// aborts the append: the tail does not advance, the index keeps the
  /// previous version, and the half-written bytes are overwritten by the
  /// next append (or ignored by the next scan). Compaction publishes
  /// through the same seam, so crash injection covers the rebase path too.
  faults::Site& pre_publish_site() noexcept { return pre_publish_site_; }

  /// Crash seam of a recycled roll, evaluated with the file's path at four
  /// steps, in order: before the scrub, mid-scrub, after the new header is
  /// written (the file still has its spare name), and after the rename has
  /// installed it as the new tail. A crash before the rename keeps the
  /// spare for the next roll; a crash after it leaves an empty tail. The
  /// append that rolled aborts either way. Not armed by attach_faults, so
  /// planned chaos keeps its schedule; tests drive it through set_hook.
  faults::Site& recycle_site() noexcept { return recycle_site_; }

  /// Arms the store's fault sites (pre-publish crash + record-byte
  /// corruption) against `injector`'s plan. Setup-phase only.
  void attach_faults(faults::Injector& injector) {
    injector.attach(pre_publish_site_);
    injector.attach(corrupt_site_);
  }

  /// Offline summary of a store directory for operator tooling (`coreda
  /// policy inspect`). Opens read-only; never repairs anything.
  struct SegmentInfo {
    std::uint64_t writer = 0;
    std::uint64_t seq = 0;
    std::uint64_t anchors = 0;  ///< valid anchor records
    std::uint64_t deltas = 0;   ///< valid delta records
    std::uint64_t live = 0;     ///< users whose newest record is here
    double mean_chain_length = 0.0;  ///< mean records per live chain here
  };
  struct Info {
    /// store.meta's table (empty unless meta_ok).
    TableSchema table;
    std::size_t segments = 0;
    std::uint64_t records = 0;          ///< valid records scanned
    std::uint64_t anchors = 0;          ///< ... of which full tables
    std::uint64_t deltas = 0;           ///< ... of which changed-row deltas
    std::uint64_t corrupt_records = 0;  ///< invalid records ending a
                                        ///< segment's valid prefix
    std::uint64_t users = 0;            ///< distinct users with a valid record
    std::uint64_t live_records = 0;     ///< == users (newest per user)
    std::uint64_t max_version = 0;
    double mean_chain_length = 0.0;     ///< mean records per live chain
    std::uint64_t meta_format = 0;      ///< store.meta's format version
    /// store.meta has this build's format version, a valid trailer and
    /// one well-formed, non-degenerate table; records are scanned only
    /// when it does.
    bool meta_ok = false;
    std::vector<SegmentInfo> segment_details;
  };
  static Info inspect(const std::string& dir);
  /// Whether `dir` looks like a segment store (has a store.meta).
  static bool is_store_dir(const std::string& dir);

 private:
  struct Segment;
  struct Writer;

  /// Sizes every writer lane's index for the users below `users` with
  /// `size` (UserIndex::reserve or ::grow).
  void size_lanes(std::uint64_t users,
                  void (UserIndex::*size)(std::uint64_t));
  void write_meta() const;
  void validate_meta() const;
  void open_existing_segments();
  /// The scan-on-open of `segs` (sorted by writer, then seq): verifies
  /// every segment's valid prefix, one job per lane that holds segments,
  /// then publishes the records into the index in (writer, seq, offset)
  /// order (see DESIGN.md, "Fleet tier").
  void scan_segments(std::span<const std::unique_ptr<Segment>> segs);
  /// Finds seg's longest valid prefix (sets used and records, resyncs the
  /// advisory header count) without touching the index.
  void verify_segment(Segment& seg) const noexcept;
  /// Rolls `w` onto a new tail: its spare when it has one, else a fresh file.
  Segment* new_segment(Writer& w);
  /// The recycled roll (see recycle_site); null when the spare's file is
  /// gone, after dropping it.
  Segment* recycle_spare(Writer& w);
  /// Takes a segment an append just emptied out of w's chain and retires
  /// it; a no-op when the chain does not hold it (mid-compaction).
  void reclaim(Writer& w, const Segment& seg);
  /// Keeps an unreferenced segment as w's spare, or unlinks it.
  void retire(Writer& w, std::unique_ptr<Segment> seg);
  std::size_t fresh_segment_bytes() const noexcept;
  void set_segment_path(std::string& path, std::uint64_t writer,
                        std::uint64_t seq) const;
  void publish_index(std::uint64_t user, Segment& seg, std::uint64_t offset,
                     std::uint64_t version);
  /// Appends one record (delta when profitable and allowed) and flips the
  /// index. Returns the bytes written.
  std::size_t write_record(Writer& w, std::uint64_t user, const rl::QTable& q,
                           std::uint64_t version, bool allow_delta);
  void maybe_compact(Writer& w);
  void compact_writer(Writer& w);
  /// Records in the chain ending at loc (1 for an anchor); structural walk
  /// only. Returns rebase_every+1 on any anomaly so callers fall back to
  /// writing an anchor.
  std::size_t chain_depth(UserIndex::Loc loc) const noexcept;
  std::uint64_t version_at(UserIndex::Loc loc) const noexcept;
  Writer& writer_for(std::uint64_t user) const noexcept {
    return *writers_[user % params_.writers];
  }

  SegmentStoreParams params_;
  TableSchema table_;
  std::size_t anchor_bytes_ = 0;  ///< anchor record length
  std::vector<std::unique_ptr<Writer>> writers_;
  /// Segments found on open whose writer id exceeds params.writers (the
  /// store was reopened with fewer lanes). Read-only until compaction of
  /// the owning users' new writers drains them to zero reachable records —
  /// they are never appended to.
  std::vector<std::unique_ptr<Segment>> retired_;
  /// Store-global segment id -> segment, pre-sized to the id space so
  /// concurrent writer threads publish into disjoint slots without
  /// resizing. Ids come from next_seg_id_.
  std::vector<Segment*> seg_by_id_;
  std::atomic<std::uint32_t> next_seg_id_{0};
  std::uint64_t reserved_users_ = 0;
  std::uint64_t scanned_records_ = 0;
  // Atomics: incremented by concurrent shard writers (everything else an
  // append touches is partitioned per writer or per user, but these
  // counters are store-wide).
  std::atomic<std::uint64_t> appends_{0};
  std::atomic<std::uint64_t> appended_bytes_{0};
  std::atomic<std::uint64_t> anchor_records_{0};
  std::atomic<std::uint64_t> delta_records_{0};
  std::atomic<std::uint64_t> compactions_{0};
  std::atomic<std::uint64_t> reclaimed_{0};
  faults::Site pre_publish_site_{"segment_store.pre_publish"};
  faults::Site corrupt_site_{"segment_store.corrupt"};
  faults::Site recycle_site_{"segment_store.recycle"};
  /// Users every lane's index is sized for; set only by size_lanes().
  std::uint64_t sized_users_ = 0;
};

}  // namespace coreda::serve
