#pragma once

#include <iosfwd>

#include "util/flags.hpp"

namespace coreda::cli {

/// Dispatches one parsed command line against `out`/`err`. Returns the
/// process exit code (0 success, 1 user error, 2 execution failure).
///
/// Commands:
///   simulate   closed-loop assisted sessions and a summary
///   train      train a planner and store its policy
///   prompt     query a stored policy for the next-step prompt
///   policy     inspect a policy store: meta, its table, records and
///              chain shape (no learner needed)
///   scenario   replay the paper's Figure 1 timeline
///   report     the multi-day caregiver summary
///   retrain    closed-loop drift recovery demo: flag users serving from
///              stale policies, retrain them on their own transcripts,
///              report the prompt-rate recovery (exit 0 iff all recover)
///   list       the deployment catalog (ADLs, tools, node uids)
///   help       usage
int run_command(const util::Flags& flags, std::ostream& out,
                std::ostream& err);

}  // namespace coreda::cli
