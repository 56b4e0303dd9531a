#include "serve/scenario_runner.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "exec/trial_runner.hpp"
#include "patient/profile.hpp"
#include "util/rng.hpp"

namespace coreda::serve {
namespace {

using util::mix64;

/// Donor pretraining: episodes per ADL, and the dataset seed.
constexpr std::size_t kDonorPretrainEpisodes = 120;
constexpr std::uint64_t kDonorPretrainSeed = 7;
/// Whole-home slots; user u is served on slot u % kSlots.
constexpr std::size_t kSlots = 4;
/// Recognition-gated switching on every slot (see run_scenario).
constexpr recognition::ActivityTracker::Params kSwitchingTracker{
    .switch_window = 2, .switch_threshold = 0.8, .switch_patience = 1};
/// No user is resident on a slot before its first session.
constexpr std::uint64_t kNoUser = ~std::uint64_t{0};

double unit_interval(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Users arriving in round `r`, in arrival order.
std::vector<std::uint64_t> arrivals_for_round(const sim::ScenarioPlan& plan,
                                              std::uint64_t r) {
  std::vector<std::uint64_t> out;
  if (plan.arrivals == "roundrobin") {
    const std::uint64_t active =
        plan.active == 0 ? plan.users : std::min(plan.active, plan.users);
    out.reserve(active);
    const std::uint64_t start = (r * active) % plan.users;
    for (std::uint64_t k = 0; k < active; ++k) {
      out.push_back((start + k) % plan.users);
    }
  } else {  // "all"
    out.reserve(plan.users);
    for (std::uint64_t u = 0; u < plan.users; ++u) out.push_back(u);
  }
  return out;
}

/// Profile of user `u` in round `r`: plan severity plus a deterministic
/// per-user offset in [-0.1, 0.1) and `r` rounds of drift, compliance
/// decayed multiplicatively per round.
patient::PatientProfile profile_for(const sim::ScenarioPlan& plan,
                                    std::uint64_t u, std::uint64_t r) {
  const double offset =
      unit_interval(mix64(plan.seed ^ (0xC0FFEEULL + u))) * 0.2 - 0.1;
  const double severity =
      std::clamp(plan.severity + offset +
                     static_cast<double>(r) * plan.severity_drift,
                 0.0, 1.0);
  patient::PatientProfile profile = patient::PatientProfile::with_severity(
      "user" + std::to_string(u), severity);
  const double keep = 1.0 - plan.compliance_decay;
  for (std::uint64_t i = 0; i < r; ++i) {
    profile.comply_minimal *= keep;
    profile.comply_specific *= keep;
  }
  return profile;
}

void fold_session(ScenarioSummary& sum, const sim::ScenarioPlan& plan,
                  std::uint64_t user, std::uint64_t round,
                  const core::HomeScriptResult& r) {
  ++sum.sessions;
  if (r.completed) ++sum.completed_sessions;
  sum.segments += r.segments;
  sum.segments_completed += r.segments_completed;
  sum.prompts += r.session.prompts_total;
  sum.praises += r.session.praises;
  sum.wrong_tool_recoveries += r.session.wrong_tool_recoveries;
  sum.segment_switches += r.session.segment_switches;
  sum.idle_episodes += r.idle_episodes;

  std::uint64_t digest = mix64(plan.seed ^ mix64(user) ^ (round << 32));
  const auto fold = [&digest](std::uint64_t v) { digest = mix64(digest ^ v); };
  fold(r.session.prompts_total);
  fold(r.session.praises);
  fold(r.session.wrong_tool_recoveries);
  fold(r.session.segment_switches);
  fold(r.segments_completed);
  fold(r.idle_episodes);
  fold(r.completed ? 1 : 0);
  fold(std::bit_cast<std::uint64_t>(
      static_cast<std::int64_t>(r.session.elapsed.total_micros())));
  sum.checksum += digest;  // wrapping: order-independent across slots
}

}  // namespace

core::SessionScript compile_script(const sim::ScenarioPlan& plan) {
  core::SessionScript script;
  script.hint = plan.hint;
  script.parts.reserve(plan.parts.size());
  for (const sim::ScenarioPart& part : plan.parts) {
    core::ScriptPart compiled;
    compiled.adl = part.adl;
    compiled.steps = static_cast<std::size_t>(part.steps);
    compiled.resume = part.resume;
    compiled.freeze = static_cast<std::size_t>(part.freeze);
    compiled.wrong_tool = static_cast<std::size_t>(part.wrong_tool);
    compiled.wrong_tool_id = adl::kNoTool;
    compiled.pause = sim::Duration::seconds(part.pause_s);
    script.parts.push_back(std::move(compiled));
  }
  return script;
}

ScenarioSummary run_scenario(const sim::ScenarioPlan& plan,
                             std::size_t jobs) {
  // One runner for the donor's pretraining and the slot trials, so a run
  // starts at most `jobs` workers.
  exec::TrialRunner runner(jobs);
  const adl::AdlLibrary library;
  core::HomeDeployment donor(library, core::SystemConfig{.seed = plan.seed});
  donor.pretrain(kDonorPretrainEpisodes, kDonorPretrainSeed, runner);

  std::vector<std::unique_ptr<core::HomeDeployment>> slots;
  for (std::size_t i = 0; i < kSlots; ++i) {
    auto home = std::make_unique<core::HomeDeployment>(
        library, core::SystemConfig{.seed = exec::trial_seed(plan.seed, i)});
    home->adopt_recognizer(donor.recognizer());
    home->set_tracker_params(kSwitchingTracker);
    for (const adl::Adl& adl : library.adls()) {
      home->import_policy(adl.name(), donor.learner(adl.name()).q());
    }
    slots.push_back(std::move(home));
  }

  const core::SessionScript script = compile_script(plan);
  const sim::Duration deadline = sim::Duration::minutes(plan.max_minutes);

  // One trial per slot: slot s serves exactly the users it owns
  // (u % kSlots == s), in (round, arrival-order) order. Slots touch
  // disjoint deployments, so trials are data-race-free and the outcome is
  // independent of `jobs`.
  const std::vector<ScenarioSummary> outcomes = runner.run(
      kSlots, plan.seed, [&](exec::TrialContext& ctx) {
        ScenarioSummary out;
        std::uint64_t resident = kNoUser;
        for (std::uint64_t r = 0; r < plan.rounds; ++r) {
          for (const std::uint64_t user : arrivals_for_round(plan, r)) {
            if (user % kSlots != ctx.index) continue;
            ++(user == resident ? out.pool_hits : out.pool_swaps);
            resident = user;
            const core::HomeScriptResult result = slots[ctx.index]->run_script(
                script, profile_for(plan, user, r), deadline);
            fold_session(out, plan, user, r, result);
          }
        }
        return out;
      });

  ScenarioSummary sum;
  for (const ScenarioSummary& out : outcomes) {
    sum.sessions += out.sessions;
    sum.completed_sessions += out.completed_sessions;
    sum.segments += out.segments;
    sum.segments_completed += out.segments_completed;
    sum.prompts += out.prompts;
    sum.praises += out.praises;
    sum.wrong_tool_recoveries += out.wrong_tool_recoveries;
    sum.segment_switches += out.segment_switches;
    sum.idle_episodes += out.idle_episodes;
    sum.pool_hits += out.pool_hits;
    sum.pool_swaps += out.pool_swaps;
    sum.checksum += out.checksum;
  }
  return sum;
}

std::string format_scenario_report(std::string_view name,
                                   const sim::ScenarioPlan& plan,
                                   const ScenarioSummary& sum) {
  char buf[512];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "[%.*s] users=%llu rounds=%llu sessions=%llu\n",
                static_cast<int>(name.size()), name.data(),
                static_cast<unsigned long long>(plan.users),
                static_cast<unsigned long long>(plan.rounds),
                static_cast<unsigned long long>(sum.sessions));
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      "  completed=%llu segments=%llu/%llu prompts=%llu praises=%llu "
      "recoveries=%llu switches=%llu idle=%llu\n",
      static_cast<unsigned long long>(sum.completed_sessions),
      static_cast<unsigned long long>(sum.segments_completed),
      static_cast<unsigned long long>(sum.segments),
      static_cast<unsigned long long>(sum.prompts),
      static_cast<unsigned long long>(sum.praises),
      static_cast<unsigned long long>(sum.wrong_tool_recoveries),
      static_cast<unsigned long long>(sum.segment_switches),
      static_cast<unsigned long long>(sum.idle_episodes));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  pool: hits=%llu swaps=%llu rejected=%llu\n",
                static_cast<unsigned long long>(sum.pool_hits),
                static_cast<unsigned long long>(sum.pool_swaps),
                static_cast<unsigned long long>(sum.rejected_records));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  completion_rate=%a prompts_per_session=%a\n",
                sum.completion_rate(), sum.prompts_per_session());
  out += buf;
  std::snprintf(buf, sizeof(buf), "  checksum=%016llx\n",
                static_cast<unsigned long long>(sum.checksum));
  out += buf;
  return out;
}

}  // namespace coreda::serve
