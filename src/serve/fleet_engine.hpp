#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <vector>

#include "core/home.hpp"
#include "exec/trial_runner.hpp"
#include "patient/profile.hpp"
#include "serve/segment_store.hpp"
#include "util/latency_histogram.hpp"

namespace coreda::serve {

struct FleetEngineParams {
  /// Per-core shards. A user lives on shard `user % shards` forever; a
  /// drain runs one TrialRunner trial per shard, so any --jobs value
  /// produces byte-identical tables and stdout (the ServeEngine determinism
  /// argument, lifted from slots to shards).
  std::size_t shards = 4;
  /// Warm single-ADL HomeDeployment slots per shard. Within its shard a
  /// user maps to slot `(user / shards) % slots_per_shard`.
  std::size_t slots_per_shard = 2;
  /// Slot system `shard * slots_per_shard + slot` is seeded with
  /// exec::trial_seed(seed, that global index).
  std::uint64_t seed = 99;
  /// Template for every slot's system (seed overridden per slot).
  core::SystemConfig system{};
  /// Append the user's table into the segment store every Nth session
  /// (wear batching at fleet scale; 0 = only on eviction/flush). An
  /// evicted user with unwritten sessions is always appended first, so
  /// learning-enabled fleets never lose table updates. Regardless of the
  /// setting, a user is force-appended when its 8-bit unwritten-session
  /// counter would saturate (255 sessions), keeping the packed record
  /// exact.
  std::size_t write_back_every = 1;
  /// A session whose post-update prompt EWMA (alpha = 1/8) reaches this
  /// many prompts flags the user as drifting — the care-side signal that a
  /// patient needs attention, surfaced fleet-wide for ~0 resident bytes.
  double drift_threshold = 6.0;
};

/// Cumulative fleet-wide serving counters, merged across shards after a
/// drain. All fields except `latency` are deterministic functions of the
/// configuration + enqueue history; `latency` is wall-clock and belongs in
/// timing side-channels only, never on stdout.
struct FleetReport {
  std::uint64_t sessions = 0;
  std::uint64_t completed = 0;
  std::uint64_t prompts = 0;
  std::uint64_t checksum = 0;          ///< order-independent digest
  std::uint64_t pool_hits = 0;         ///< user already resident on its slot
  std::uint64_t cold_loads = 0;        ///< policy loaded from the mmap store
  std::uint64_t reference_starts = 0;  ///< no stored record: donor table
  std::uint64_t appends = 0;           ///< write-backs into the store
  std::uint64_t drift_flagged = 0;     ///< sessions whose EWMA crossed the
                                       ///< drift threshold
  std::uint64_t dropped_sessions = 0;  ///< injected node dropouts (the
                                       ///< session never ran; retried only
                                       ///< if re-enqueued)
  std::uint64_t crashed_appends = 0;   ///< store write-backs aborted by an
                                       ///< injected crash (entry stays
                                       ///< unflushed and retries later)
  std::uint64_t radio_lost_frames = 0; ///< frames dropped by injected
                                       ///< Gilbert–Elliott radio bursts
  util::LatencyHistogram latency;      ///< per-session serve latency (ns)
};

/// The million-user tier: a sharded serving frontend over a SegmentStore.
///
/// Where ServeEngine keeps a resident QTable per user (PolicyStore entry),
/// FleetEngine keeps FOUR bytes of RAM per registered user — one packed u32
/// holding quantized severity, the unwritten-session count, and a prompt
/// EWMA for drift flagging — plus ~9 bytes of store index slab. The
/// version is not resident at all: it is derived as the store's latest
/// version plus the unwritten-session count (both always advance
/// together). Every table lives in the mmap'd segment store and is faulted
/// in on checkout. Total resident cost lands under 16 bytes per registered
/// user, which is what lets one box register a million users while only
/// the active set costs anything per round.
///
/// Thread-safety mirrors the store's writer partitioning: the engine sets
/// the store's writers == shards and only ever touches user `u` from shard
/// `u % shards`, so concurrent drains append to disjoint segments and
/// disjoint index entries. register_user / enqueue / flush_residents /
/// dump_policies are main-thread (setup or post-drain) only.
class FleetEngine {
 public:
  static constexpr std::uint64_t kNoUser =
      std::numeric_limits<std::uint64_t>::max();

  /// `library`, `adl`, `store` and `reference` must outlive the engine.
  /// `reference` is the donor table users start from before their first
  /// write-back; its shape must match the store's schema.
  /// Throws std::invalid_argument when store.writers() != params.shards
  /// (the partitioning argument above would not hold).
  FleetEngine(const adl::AdlLibrary& library, const adl::Adl& adl,
              SegmentStore& store, const rl::QTable& reference,
              FleetEngineParams params = {});

  /// Pre-sizes the packed-record slab and the store's index for `users`
  /// registrations — one allocation instead of doubling growth (setup
  /// phase).
  void reserve_users(std::uint64_t users);

  /// Registers a user with the given dementia severity (quantized to 1/256
  /// steps). Ids are dense and shared with the store. Setup-phase only.
  std::uint64_t register_user(double severity);
  std::size_t num_users() const noexcept { return packed_.size(); }

  std::size_t shard_for(std::uint64_t user) const noexcept {
    return static_cast<std::size_t>(user % shards_.size());
  }

  /// Queues one session for the user (bucketed straight onto its shard —
  /// no per-drain redistribution pass).
  void enqueue(std::uint64_t user);
  std::size_t queued() const noexcept;

  /// Serves every queued session, one trial per shard, and returns the
  /// merged cumulative report.
  FleetReport drain(exec::TrialRunner& runner);

  /// Appends every resident table with unwritten sessions to the store
  /// (post-drain, main thread) — the fleet-wide flush_all.
  void flush_residents();

  /// Clears the per-shard latency histograms (main thread, between drains).
  /// The bench calls this after its warm-up round so the reported
  /// percentiles cover only the timed traffic.
  void reset_latency();

  /// Arms the fleet's fault seams against `injector`'s plan: shard stalls
  /// ("fleet.stall"), node dropouts ("fleet.node_dropout"), the store's
  /// crash/corruption sites, and every slot system's radio burst chain
  /// ("radio.loss_burst", lane = global slot index). Setup phase or between
  /// drains only — never while shard trials run.
  void attach_faults(faults::Injector& injector);

  /// Hexfloat dump of every user's *stored* table and version — the
  /// cross---jobs byte-identity witness the determinism test compares.
  void dump_policies(std::ostream& out) const;

  /// The user's session count lineage: stored version + sessions not yet
  /// appended (derived — no resident u64 per user).
  std::uint64_t version(std::uint64_t user) const;
  /// The user's prompt EWMA in prompts/session (0 until the first session).
  double prompt_ewma(std::uint64_t user) const;
  /// Bytes of engine-resident per-user state: the packed u32 slab. The
  /// store's index slab (SegmentStore::index_slab_bytes) is the only other
  /// per-user resident cost.
  std::size_t resident_state_bytes() const noexcept {
    return packed_.size() * sizeof(std::uint32_t);
  }
  const SegmentStore& store() const noexcept { return *store_; }
  const FleetEngineParams& params() const noexcept { return params_; }

 private:
  // One u32 of resident state per registered user:
  //   [7:0]   severity, quantized to 1/256 (dequantized as (q + 0.5)/256)
  //   [15:8]  sessions since the last store append (append forced at 255)
  //   [23:16] prompts-per-session EWMA, 5.3 fixed point, alpha = 1/8
  //   [24]    EWMA primed (first session seeds instead of blending)
  static constexpr std::uint32_t kUnflushedMask = 0xFFu << 8;
  static constexpr std::uint32_t kEwmaMask = 0xFFu << 16;
  static constexpr std::uint32_t kPrimedBit = 1u << 24;

  static std::uint32_t quantize_severity(double severity) noexcept {
    if (severity <= 0.0) return 0;
    if (severity >= 1.0) return 255;
    const auto q = static_cast<std::uint32_t>(severity * 256.0);
    return q > 255 ? 255 : q;
  }
  static double severity_of(std::uint32_t packed) noexcept {
    return (static_cast<double>(packed & 0xFF) + 0.5) / 256.0;
  }
  static std::uint32_t unflushed_count(std::uint32_t packed) noexcept {
    return (packed >> 8) & 0xFF;
  }

  struct Slot {
    std::unique_ptr<core::HomeDeployment> system;
    std::uint64_t resident = kNoUser;
  };
  struct Shard {
    explicit Shard(std::size_t num_states, std::size_t num_actions)
        : scratch_q(num_states, num_actions) {}
    std::vector<Slot> slots;
    std::vector<std::uint64_t> queue;  ///< users, in enqueue order
    // Per-shard scratch reused across every session of every drain: the
    // serve loop is allocation-free at steady state.
    core::SessionResult result;
    patient::PatientProfile profile;
    rl::QTable scratch_q;
    util::LatencyHistogram latency;
    std::uint64_t sessions = 0;
    std::uint64_t completed = 0;
    std::uint64_t prompts = 0;
    std::uint64_t checksum = 0;
    std::uint64_t pool_hits = 0;
    std::uint64_t cold_loads = 0;
    std::uint64_t reference_starts = 0;
    std::uint64_t appends = 0;
    std::uint64_t drift_flagged = 0;
    std::uint64_t attempts = 0;  ///< serve_one calls (dropout decision tick)
    std::uint64_t dropped = 0;
    std::uint64_t crashed_appends = 0;
  };

  std::size_t slot_in_shard(std::uint64_t user) const noexcept {
    return static_cast<std::size_t>((user / shards_.size()) %
                                    params_.slots_per_shard);
  }
  void serve_one(Shard& sh, std::uint64_t user);
  void append_user(Shard& sh, const Slot& slot, std::uint64_t user);

  FleetEngineParams params_;
  SegmentStore* store_;
  const rl::QTable* reference_;
  std::vector<Shard> shards_;
  faults::Site stall_site_{"fleet.stall"};
  faults::Site dropout_site_{"fleet.node_dropout"};
  faults::Site radio_site_{"radio.loss_burst"};
  std::uint64_t drains_ = 0;  ///< stall decision tick
  /// Dense per-user state — the ENTIRE engine-resident RAM cost of a
  /// registered user (layout above).
  std::vector<std::uint32_t> packed_;
};

}  // namespace coreda::serve
