#pragma once

#include <vector>

#include "adl/types.hpp"
#include "sensors/envelope.hpp"
#include "sim/time.hpp"

namespace coreda::sensors {

/// The shared physical state the sensor nodes observe: which tools are being
/// manipulated right now and how far each manipulation has progressed.
///
/// The patient model writes manipulations into the world; each PAVENET
/// node's firmware reads back the activation of its own tool. This is the
/// seam that replaces "a real person handling real tools" in the paper's
/// deployment — see DESIGN.md §2.
///
/// Queries are valid for any time within the last kHistoryRetention of
/// virtual time, not just the current instant: the batched firmware task
/// wakes once per vote window and evaluates the samples it would have taken
/// at each 10 Hz tick retroactively, so the world keeps a short per-tool
/// episode history. An episode superseded by a later begin() of the same
/// tool stays answerable for times before the successor started (what a
/// live per-tick reader would have seen), and is clipped from the
/// successor's start onward.
///
/// Storage is a dense table keyed by ToolId (the PAVENET uid space is small
/// and dense — paper Table 2), so the per-sample activation lookups on the
/// firmware hot path are an array index, not a tree walk.
class ManipulationWorld {
 public:
  /// How far back activation()/in_use() queries remain answerable. It
  /// must cover the longest firmware batch window (vote_window /
  /// sampling_hz; 1 s at the paper's 10 Hz, 5 s at the 2 Hz end of the
  /// energy sweep); PavenetNode's constructor rejects a batched window
  /// longer than this.
  static constexpr sim::Duration kHistoryRetention =
      sim::Duration::seconds(10.0);

  /// Per-tool episode-list pre-size: pruning keeps only episodes younger
  /// than kHistoryRetention, so a handful are ever live at once.
  static constexpr std::size_t kEpisodeReserve = 16;

  /// Pre-sizes the per-tool episode table for tool ids below
  /// `tool_capacity`. Optional: begin() grows the table on demand; calling
  /// this up front keeps even the first manipulation of a rarely-touched
  /// tool (e.g. a random wrong-tool grab) allocation-free at serving time.
  void provision(std::size_t tool_capacity);

  /// Starts (or restarts) a manipulation of `tool` lasting `duration`.
  /// `ramp` defaults to a 0.5 s grip transition, capped by the envelope to
  /// half the duration.
  void begin(adl::ToolId tool, sim::TimePoint start, sim::Duration duration,
             sim::Duration ramp = sim::Duration::seconds(0.5));

  /// Ends any in-progress manipulation of `tool` early.
  void end(adl::ToolId tool, sim::TimePoint now);

  /// Envelope activation of `tool` at `at`, in [0, 1]; 0 when idle.
  double activation(adl::ToolId tool, sim::TimePoint at) const;

  /// Fills out[0..count) with the activation of `tool` at `first`,
  /// `first + step`, ... — one episode-list lookup for the whole block
  /// (the firmware's per-wake-up envelope synthesis).
  void activation_block(adl::ToolId tool, sim::TimePoint first,
                        sim::Duration step, std::size_t count,
                        double* out) const;

  /// Whether `tool` had a manipulation covering `at`.
  bool in_use(adl::ToolId tool, sim::TimePoint at) const;

  /// Whether no episode of `tool` overlaps [first, last]. If so, every
  /// activation in that span is exactly +0, so a firmware wake can skip
  /// the per-sample lookups (conservative: an episode whose envelope is 0
  /// at every queried instant still counts as overlapping).
  bool idle_over(adl::ToolId tool, sim::TimePoint first,
                 sim::TimePoint last) const noexcept;

  /// Drops episodes that ended more than kHistoryRetention before `now`
  /// (bounded memory on long runs without breaking retroactive queries).
  void garbage_collect(sim::TimePoint now);

  /// Forgets all episode history but keeps per-tool buffer capacity, so a
  /// reused world serves its next session without fresh allocations.
  void reset() noexcept;

 private:
  struct Episode {
    sim::TimePoint start;
    sim::TimePoint end;
    UsageEnvelope envelope;
  };

  static double episode_activation(const Episode& ep, sim::TimePoint at);

  const std::vector<Episode>* find(adl::ToolId tool) const noexcept {
    return tool < history_.size() ? &history_[tool] : nullptr;
  }

  /// Episodes per tool in start order (newest at the back), indexed by
  /// ToolId; pruned against kHistoryRetention on every begin().
  std::vector<std::vector<Episode>> history_;
};

}  // namespace coreda::sensors
