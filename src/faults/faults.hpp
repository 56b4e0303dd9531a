#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace coreda::faults {

/// Thrown by Site::crash_point when the plan schedules a crash there.
///
/// Components treat an InjectedCrash exactly like a real mid-publish power
/// cut: abort the write, keep the committed prefix, leave retry state
/// (unflushed counters, dirty tables) intact so the operation is re-attempted
/// later. Harnesses catch it by type so genuine I/O errors still propagate.
struct InjectedCrash : std::runtime_error {
  explicit InjectedCrash(const std::string& what) : std::runtime_error(what) {}
};

/// Gilbert–Elliott two-state burst channel: frames are lost with
/// loss_in_good while the chain is in the good state and loss_in_bad while
/// it is in the bad state; the chain enters bad with p_enter per frame and
/// leaves it with p_exit. All-zero means no burst model.
struct BurstConfig {
  double p_enter = 0.0;
  double p_exit = 0.0;
  double loss_in_good = 0.0;
  double loss_in_bad = 0.0;

  bool enabled() const noexcept {
    return p_enter > 0.0 || loss_in_good > 0.0 || loss_in_bad > 0.0;
  }
};

/// Per-site knobs. A site ignores the fields that make no sense for it
/// (a crash seam reads rate, a stall seam reads rate + delay_us, a radio
/// seam reads burst). Epoch windows gate every decision: the injector's
/// epoch counter must be in [epoch_begin, epoch_end) for the site to fire,
/// which lets a plan schedule chaos rounds followed by clean probe rounds.
struct SiteConfig {
  double rate = 0.0;                 ///< per-evaluation injection probability
  std::uint64_t delay_us = 0;        ///< stall duration when a stall fires
  BurstConfig burst;                 ///< radio burst schedule
  std::uint64_t epoch_begin = 0;     ///< first epoch (inclusive) the site is live
  std::uint64_t epoch_end = UINT64_MAX;  ///< first epoch the site is dead

  bool trivial() const noexcept {
    return rate <= 0.0 && delay_us == 0 && !burst.enabled();
  }
};

/// A fault plan is pure data: one seed plus named per-site configs.
/// Replaying any failure is {seed, plan} — every injection decision is a
/// pure function of (plan seed, site name, user, tick, epoch), so a replay
/// is byte-identical at any --jobs.
struct FaultPlan {
  /// Longest stall a site may hold: one day, like ScenarioPlan's pause
  /// bound. Its nanosecond count fits std::chrono::nanoseconds, which
  /// Site::stall_ns feeds.
  static constexpr std::uint64_t kMaxDelayUs = 86'400ULL * 1'000'000ULL;

  std::uint64_t seed = 1;
  std::map<std::string, SiteConfig> sites;

  /// The standard chaos-soak plan used by bench_chaos_soak and
  /// `coreda faults replay` defaults: crash/corrupt/dropout/stall/burst on
  /// every registered seam for `chaos_epochs` epochs, then silence (so the
  /// bench's clean tail rounds can assert zero-allocation steady state).
  static FaultPlan standard_chaos(std::uint64_t seed,
                                  std::uint64_t chaos_epochs);

  /// Parses the `key = value` text format written by save():
  ///
  ///   seed = 42
  ///   [site segment_store.pre_publish]
  ///   rate = 0.05
  ///   epoch_end = 6
  ///
  /// Unknown keys, malformed lines and values out of bounds throw
  /// std::runtime_error with a line number: rate, p_enter, p_exit,
  /// loss_in_good and loss_in_bad must lie in [0, 1], delay_us at most
  /// kMaxDelayUs, and a site's epoch_begin at most its epoch_end (named at
  /// the later of the two lines). Comments (#) and blank lines are skipped.
  static FaultPlan parse(std::istream& in);
  void save(std::ostream& out) const;
};

class Injector;

/// A named seam a component exposes to the injector. Components own their
/// Site by value and call its decision methods at the fault point; an
/// unattached or out-of-window site is an inert branch (no allocation, a
/// couple of integer mixes). Decisions are pure functions of
/// (site stream, user, tick): no shared mutable draw state, so concurrent
/// shard trials get byte-identical schedules at any interleaving.
///
/// Sites also carry a one-off test hook: set_hook() routes a test's crash
/// lambda through the same seam as planned faults, so there is one
/// injection vocabulary.
class Site {
 public:
  explicit Site(std::string name) : name_(std::move(name)) {}

  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  const std::string& name() const noexcept { return name_; }
  bool armed() const noexcept { return armed_; }

  /// True when the plan schedules an injection for (user, tick) in the
  /// current epoch. Counts one evaluation; counts one injection when it
  /// fires.
  bool should_inject(std::uint64_t user, std::uint64_t tick) noexcept;

  /// Crash seam. Runs the legacy hook first (it may throw, preserving the
  /// old pre-publish contract), then throws InjectedCrash when the plan
  /// schedules a crash for (user, tick).
  void crash_point(std::uint64_t user, std::uint64_t tick,
                   const std::string& detail);

  /// Corruption seam: byte offset to flip inside a len-byte record, or
  /// kNoCorruption. The offset is the sampled online mode of the
  /// every-offset sweep in policy_fuzz_test: over many firings the schedule
  /// walks the whole record uniformly.
  static constexpr std::size_t kNoCorruption = SIZE_MAX;
  std::size_t corrupt_offset(std::uint64_t user, std::uint64_t tick,
                             std::size_t len) noexcept;

  /// Stall seam: nanoseconds to stall lane at tick (0 = no stall).
  std::uint64_t stall_ns(std::uint64_t lane, std::uint64_t tick) noexcept;

  /// Legacy escape hatch: a hook invoked by crash_point before the planned
  /// decision. Replaces the raw pre-publish std::function setters.
  void set_hook(std::function<void(const std::string&)> hook) {
    hook_ = std::move(hook);
  }
  bool has_hook() const noexcept { return static_cast<bool>(hook_); }

  std::uint64_t evaluations() const noexcept {
    return evaluations_.load(std::memory_order_relaxed);
  }
  std::uint64_t injections() const noexcept {
    return injections_.load(std::memory_order_relaxed);
  }

  const SiteConfig& config() const noexcept { return config_; }
  std::uint64_t stream() const noexcept { return stream_; }

  /// True when the site's epoch window contains the injector's current
  /// epoch (always false when unattached). BurstState consults this.
  bool window_open() const noexcept;

 private:
  friend class Injector;
  friend class BurstState;

  void count_injection() noexcept {
    injections_.fetch_add(1, std::memory_order_relaxed);
  }

  std::string name_;
  SiteConfig config_;
  std::uint64_t stream_ = 0;
  const Injector* injector_ = nullptr;
  bool armed_ = false;
  std::function<void(const std::string&)> hook_;
  std::atomic<std::uint64_t> evaluations_{0};
  std::atomic<std::uint64_t> injections_{0};
};

/// Owns the plan and the epoch clock; components hand it their sites via
/// attach(). One injector drives a whole fleet: every attached site derives
/// its decision stream from the single plan seed split by site name
/// (SplitMix64 finalization, mirroring exec::trial_seed).
class Injector {
 public:
  /// Throws std::invalid_argument, naming the site and the key, when a
  /// site of `plan` breaks a bound FaultPlan::parse enforces: a rate or
  /// burst probability outside [0, 1], delay_us above
  /// FaultPlan::kMaxDelayUs, or epoch_begin past epoch_end. A plan built in
  /// code (standard_chaos, the tests) never went through parse().
  explicit Injector(FaultPlan plan);

  /// Arms `site` from the plan (inert if the plan has no entry for its
  /// name) and registers it for report(). Call during setup, before
  /// concurrent serving starts.
  void attach(Site& site);

  /// Advances the epoch clock. Call from the driving thread between
  /// rounds; sites read it with relaxed loads.
  void advance_epoch() noexcept {
    epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_relaxed);
  }

  const FaultPlan& plan() const noexcept { return plan_; }

  struct SiteLog {
    std::string name;
    bool armed = false;
    std::uint64_t evaluations = 0;
    std::uint64_t injections = 0;
  };
  /// Deterministic per-site injection log, sorted by site name.
  std::vector<SiteLog> log() const;

  /// Renders log() as the fixed-width table `coreda faults replay` prints.
  void report(std::ostream& out) const;

 private:
  FaultPlan plan_;
  std::vector<Site*> sites_;
  std::atomic<std::uint64_t> epoch_{0};
};

/// Per-channel Gilbert–Elliott chain state. Radio channels own one and arm
/// it against the shared radio site with their global slot id as the lane:
/// each channel is driven by exactly one shard's serial frame sequence, so
/// the chain is deterministic even though shards run concurrently.
class BurstState {
 public:
  /// Binds this chain to `site` with a per-lane RNG stream.
  void arm(Site& site, std::uint64_t lane) noexcept;

  /// Advances the chain one frame and reports whether the frame is lost.
  /// Inert (false, no RNG draw) when unarmed or the site window is closed.
  bool drop_frame() noexcept;

  bool armed() const noexcept { return site_ != nullptr; }
  bool in_bad_state() const noexcept { return bad_; }

 private:
  Site* site_ = nullptr;
  util::Rng rng_{0};
  bool bad_ = false;
};

}  // namespace coreda::faults
