#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace coreda::sim {

/// One part of a scripted session: either an ADL segment the resident
/// works on, or a caregiver interruption that pauses them.
///
/// A segment with `steps == 0` runs its ADL to completion; otherwise the
/// resident performs `steps` routine steps and is then pulled away (by the
/// script's next part). `resume == true` continues the ADL from the
/// progress saved when a previous segment of the same ADL was left —
/// that is what makes "start the tea, brush teeth, come back to the tea"
/// expressible. `freeze` / `wrong_tool` queue that many forced decision
/// outcomes at the segment's start (deterministic error injection, the
/// scenario-level analogue of PatientActor::force_next_decision).
///
/// An interruption (`adl` empty) advances simulated time by `pause_s`
/// seconds with the resident idle. A pause longer than the tracker's idle
/// gap closes the recognition episode — exactly the boundary the corpus
/// scenarios probe from both sides.
struct ScenarioPart {
  std::string adl;              ///< empty = caregiver interruption
  std::uint64_t steps = 0;      ///< routine steps to perform (0 = all)
  bool resume = false;          ///< continue from saved per-ADL progress
  std::uint64_t freeze = 0;     ///< forced freezes at segment start
  std::uint64_t wrong_tool = 0; ///< forced wrong-tool grabs at start
  double pause_s = 0.0;         ///< interruption length, seconds

  bool is_interrupt() const noexcept { return adl.empty(); }
  bool operator==(const ScenarioPart&) const = default;
};

/// A scenario plan is pure data, in the same line-oriented text format as
/// faults::FaultPlan (util/plan_text): top-level `key = value` lines, then
/// an ordered list of `[segment ADL-NAME]` / `[interrupt]` sections that
/// every served session plays through. One seed makes the whole scenario —
/// arrivals, per-user severity, every in-session decision — a pure
/// function of the file, byte-identical at any `--jobs`.
///
///   # coreda scenario plan v1
///   seed = 42
///   users = 8
///   rounds = 3
///   severity = 0.4
///   severity_drift = 0.05      # added to severity each round
///   compliance_decay = 0.02    # comply_* multiplied by (1-decay) each round
///   arrivals = all             # all | roundrobin
///   hint = Tea-making          # schedule hint for the first segment
///   max_minutes = 45
///
///   [segment Tea-making]
///   steps = 3
///
///   [interrupt]
///   pause_s = 30
///
///   [segment Tooth-brushing]
///
///   [segment Tea-making]
///   resume = true
struct ScenarioPlan {
  /// Bounds parse() enforces, so a plan cannot ask a session for an
  /// unbounded amount of work or a duration past sim::Duration's range:
  /// an interruption lasts at most a day (pause_s in (0, 86400]), so does
  /// a session (max_minutes in (0, 1440]), and a segment queues at most
  /// 100 forced freezes and 100 forced wrong-tool grabs. A run serves at
  /// most 10,000 users (users and a roundrobin round's active count fit
  /// serve::UserId) for at most 1,000 rounds, and a segment asks for at
  /// most 100 routine steps, more than any routine has (a count past the
  /// steps left runs the ADL to completion).
  static constexpr double kMaxPauseSeconds = 86400.0;
  static constexpr double kMaxMinutes = 1440.0;
  static constexpr std::uint64_t kMaxForcedDecisions = 100;
  static constexpr std::uint64_t kMaxUsers = 10000;
  static constexpr std::uint64_t kMaxRounds = 1000;
  static constexpr std::uint64_t kMaxSteps = 100;

  std::uint64_t seed = 1;
  std::uint64_t users = 1;
  std::uint64_t rounds = 1;
  /// Baseline dementia severity of every user in [0, 1]; user u is offset
  /// deterministically by the runner so the fleet is not homogeneous.
  double severity = 0.3;
  /// Added to the baseline severity each round (progression).
  double severity_drift = 0.0;
  /// Per-round multiplicative decay of prompt compliance:
  /// comply *= (1 - compliance_decay) each round.
  double compliance_decay = 0.0;
  /// "all": every user arrives every round. "roundrobin": round r serves
  /// the `active` users starting at (r * active) % users.
  std::string arrivals = "all";
  std::uint64_t active = 0;  ///< users per roundrobin round (0 = all)
  std::string hint;          ///< schedule hint for the first segment
  double max_minutes = 45.0; ///< per-session deadline
  std::vector<ScenarioPart> parts;

  bool operator==(const ScenarioPlan&) const = default;

  /// Parses the text format. Malformed input throws std::runtime_error
  /// with "scenario plan line N col C: ..." diagnostics (column of the
  /// offending token in the raw line); plans that parse but make no sense
  /// (no segments, bad arrivals mode, severity outside [0,1], a value past
  /// the bounds above, resume of an ADL no earlier segment started) are
  /// rejected the same way. Counts take no sign and numbers must be
  /// finite (util/plan_text).
  static ScenarioPlan parse(std::istream& in);

  /// Writes the canonical text form; parse(save(p)) == p for any valid p.
  void save(std::ostream& out) const;
};

}  // namespace coreda::sim
