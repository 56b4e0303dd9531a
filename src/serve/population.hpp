#pragma once

#include <cstdint>
#include <string>

#include "core/system.hpp"
#include "exec/trial_runner.hpp"
#include "patient/profile.hpp"
#include "util/rng.hpp"

namespace coreda::serve {

/// Severity of serving user `user`: 0.1 + 0.4 * uniform(trial_seed(9001,
/// user)), a pure function of the user index, so the serve and fleet
/// benches and the chaos soak serve one population at any job count.
inline double user_severity(std::uint64_t user) {
  util::Rng rng(exec::trial_seed(9001, user));
  return 0.1 + 0.4 * rng.uniform();
}

/// The profile of serving user `user`, named "U<user>".
inline patient::PatientProfile user_profile(std::uint64_t user) {
  return patient::PatientProfile::with_severity("U" + std::to_string(user),
                                                user_severity(user));
}

/// Digest of one served single-ADL session: prompts, completed steps and
/// every observed StepID, summed. Both engines fold it into their report
/// checksums.
inline std::uint64_t session_checksum(const core::SessionResult& r) {
  std::uint64_t sum = r.prompts_total + r.steps_completed;
  for (const adl::StepId id : r.observed_steps) sum += id;
  return sum;
}

}  // namespace coreda::serve
