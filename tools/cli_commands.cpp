#include "tools/cli_commands.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "core/home.hpp"
#include "core/scenario.hpp"
#include "core/system.hpp"
#include "faults/faults.hpp"
#include "serve/chaos.hpp"
#include "serve/policy_store.hpp"
#include "serve/scenario_runner.hpp"
#include "sim/scenario_dsl.hpp"
#include "trace/dataset.hpp"
#include "util/table.hpp"

namespace coreda::cli {

namespace {

constexpr const char* kUsage = R"(coreda — context-aware ADL reminding (CoReDA reproduction)

usage: coreda <command> [--flags]

commands:
  list                         the deployment catalog (ADLs, tools, uids)
  simulate  --adl=<name> [--severity=0.5] [--sessions=3] [--seed=42]
            [--transcript]    closed-loop assisted sessions
  train     --adl=<name> --out=<store dir> [--episodes=120] [--seed=42]
                              train a planner and save it as user 0 of a
                              policy store (created when missing)
  prompt    --adl=<name> --policy=<store dir> [--prev=<uid>] [--cur=<uid>]
                              next-step prompt from a stored policy
  policy inspect --in=<store dir>
                              summarize a policy store (its tables,
                              records, chain shape, corruption) without
                              loading it
  faults plan    [--seed=1] [--rounds=6] [--out=<file>]
                              write the standard chaos fault plan (text,
                              editable, re-playable)
  faults replay  [--seed=1] [--plan=<file>] [--users=96] [--active=48]
                 [--rounds=4] [--tail-rounds=1] [--dir=<store dir>]
                 [--jobs=N]   deterministic chaos replay: soak the fleet
                              tier under {seed, plan}, print the per-round
                              invariant log and the per-site injection
                              log (byte-identical at any --jobs)
  scenario                     replay the paper's Figure 1 timeline
  scenario run <file> [--jobs=N]
                              execute a .scenario plan through the
                              multi-ADL serving tier; metrics are
                              byte-identical at any --jobs
  scenario check <file>        parse a .scenario plan and print its
                              canonical form (round-trip validated)
  report    [--days=7] [--seed=42]
                              multi-day caregiver summary
  retrain   [--users=12] [--slots=3] [--drifted=3] [--rounds=8]
            [--burst=2] [--threshold=2.5] [--jobs=N]
                              closed-loop drift recovery: serve a fleet
                              where some users start from a stale policy,
                              flag them, retrain on their transcripts and
                              report the recovery
  home      [--severity=0.5] [--sessions=6] [--seed=42] [--hints]
                              multi-ADL sessions with activity recognition
  help                         this message
)";

patient::PatientProfile profile_from(const util::Flags& flags) {
  patient::PatientProfile profile = patient::PatientProfile::with_severity(
      flags.get("user", "Resident"), flags.get_double("severity", 0.5));
  return profile;
}

int cmd_list(std::ostream& out) {
  adl::AdlLibrary library;
  util::TextTable table("Deployment catalog");
  table.set_header({"ADL", "Step", "Tool (node uid)", "Sensor"});
  for (const adl::Adl& adl : library.adls()) {
    for (const adl::AdlRoutine& routine : adl.routines()) {
      for (const adl::AdlStep& step : routine.steps()) {
        const adl::Tool& tool = library.tools().at(step.tool);
        table.add_row({adl.name() + " (" + routine.name() + ")", step.name,
                       tool.name + " (" + std::to_string(tool.id) + ")",
                       std::string(to_string(tool.sensor))});
      }
    }
  }
  out << table.render();
  return 0;
}

int cmd_simulate(const util::Flags& flags, std::ostream& out,
                 std::ostream& err) {
  const std::string adl_name = flags.get("adl");
  if (adl_name.empty()) {
    err << "simulate: --adl=<name> is required (see 'coreda list')\n";
    return 1;
  }
  adl::AdlLibrary library;
  const adl::Adl& adl = library.by_name(adl_name);
  const std::size_t sessions = flags.get_count("sessions", 3);

  core::SystemConfig config;
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  core::HomeDeployment system(library, adl, config);
  trace::DatasetBuilder datasets(
      library, patient::PatientProfile::with_severity("Trainer", 0.0),
      config.seed + 1);
  system.pretrain(datasets.sensed_training_set(adl, 120));

  const patient::PatientProfile profile = profile_from(flags);

  util::TextTable table("Assisted sessions — " + adl.name());
  table.set_header({"#", "Completed", "Steps", "Prompts", "Praises",
                    "Elapsed (s)"});
  int completed = 0;
  for (std::size_t i = 0; i < sessions; ++i) {
    const core::SessionResult result =
        system.run_session(profile, sim::Duration::minutes(40.0));
    completed += result.completed;
    table.add_row({std::to_string(i + 1), result.completed ? "yes" : "no",
                   std::to_string(result.steps_completed),
                   std::to_string(result.prompts_total),
                   std::to_string(result.praises),
                   util::format_fixed(result.elapsed.to_seconds(), 0)});
    if (flags.get_bool("transcript")) {
      for (const auto& r : system.reminder().log()) {
        out << "  [" << util::format_fixed(r.at.to_seconds(), 1) << "s] "
            << to_string(r.trigger) << " -> " << r.text << '\n';
      }
    }
  }
  out << table.render();
  out << completed << "/" << sessions << " sessions completed\n";
  return 0;
}

int cmd_train(const util::Flags& flags, std::ostream& out,
              std::ostream& err) {
  const std::string adl_name = flags.get("adl");
  const std::string out_dir = flags.get("out");
  if (adl_name.empty() || out_dir.empty()) {
    err << "train: --adl=<name> and --out=<store dir> are required\n";
    return 1;
  }
  adl::AdlLibrary library;
  const adl::Adl& adl = library.by_name(adl_name);
  const std::size_t episodes = flags.get_count("episodes", 120);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));

  planning::RoutineLearner learner(adl, util::Rng(seed));
  trace::DatasetBuilder datasets(
      library, patient::PatientProfile::with_severity("Trainer", 0.0),
      seed + 1);
  for (const auto& ep : datasets.sensed_training_set(adl, episodes)) {
    learner.train_episode(ep);
  }

  // A one-user store: the trained table lands as user 0's next version, so
  // re-training into an existing store keeps its versions monotonic.
  serve::PolicyStoreParams params;
  params.segments.dir = out_dir;
  serve::PolicyStore store(learner, params);
  const serve::UserId user = store.add_user("resident");
  store.restore(user);
  store.stage(user, learner.q());
  store.flush(user);
  out << "Trained " << adl.name() << " on " << episodes
      << " sensed episodes (policy accuracy "
      << util::format_percent(learner.greedy_accuracy()) << "); saved to "
      << out_dir << " (user 0, version " << store.version(user) << ")\n";
  return 0;
}

int cmd_prompt(const util::Flags& flags, std::ostream& out,
               std::ostream& err) {
  const std::string adl_name = flags.get("adl");
  const std::string store_dir = flags.get("policy");
  if (adl_name.empty() || store_dir.empty()) {
    err << "prompt: --adl=<name> and --policy=<store dir> are required\n";
    return 1;
  }
  adl::AdlLibrary library;
  const adl::Adl& adl = library.by_name(adl_name);
  // Read-only use: a path without a store.meta is refused, never turned
  // into a fresh store.
  if (!serve::SegmentStore::is_store_dir(store_dir)) {
    err << "prompt: '" << store_dir
        << "' has no store.meta — not a policy store\n";
    return 2;
  }
  planning::RoutineLearner learner(adl, util::Rng(1));
  {
    serve::PolicyStoreParams params;
    params.segments.dir = store_dir;
    serve::PolicyStore store(learner, params);
    const serve::UserId user = store.add_user("resident");
    if (!store.restore(user)) {
      err << "prompt: '" << store_dir << "' holds no policy for user 0\n";
      return 2;
    }
    learner.import_q(store.q(user));
  }

  const auto prev = static_cast<adl::StepId>(flags.get_int("prev", 0));
  const auto cur = static_cast<adl::StepId>(flags.get_int("cur", 0));
  const auto prompt = learner.predict(prev, cur);
  if (!prompt) {
    err << "prompt: context <" << prev << ", " << cur
        << "> is outside this ADL's vocabulary\n";
    return 1;
  }
  out << "context <" << prev << ", " << cur << "> -> use "
      << library.tools().at(prompt->action.tool).name << " (uid "
      << prompt->action.tool << ", "
      << planning::to_string(prompt->action.level) << " reminder)\n";
  return 0;
}

int cmd_policy_inspect(const util::Flags& flags, std::ostream& out,
                       std::ostream& err) {
  const std::string dir = flags.get("in");
  if (dir.empty()) {
    err << "policy inspect: --in=<store dir> is required\n";
    return 1;
  }
  if (!serve::SegmentStore::is_store_dir(dir)) {
    err << "policy inspect: '" << dir
        << "' has no store.meta — not a policy store\n";
    return 2;
  }
  const serve::SegmentStore::Info info = serve::SegmentStore::inspect(dir);
  // `records` counts valid records only; corrupt ones are reported apart.
  const std::uint64_t dead = info.records - info.live_records;
  out << "format: coreda-policy store v" << info.meta_format
      << " (segmented)\n"
      << "meta: " << (info.meta_ok ? "ok" : "MISMATCH") << '\n';
  if (info.meta_ok) {
    out << "table 0: " << info.table.num_states << " states x "
        << info.table.num_actions << " actions (vocabulary: "
        << info.table.steps.size() << " steps, " << info.table.tools.size()
        << " tools)\n";
  }
  out << "segments: " << info.segments << '\n'
      << "records: " << info.records << " (" << info.live_records
      << " live, " << dead << " dead, " << info.corrupt_records
      << " corrupt)\n"
      << "users: " << info.users << " (max version " << info.max_version
      << ")\n";
  // Chain shape: how well the delta encoding is amortizing appends. A mean
  // chain length near rebase_every means most appends were deltas; 1.0
  // means every record is a full anchor.
  out << "chain shape: " << info.anchors << " anchors, " << info.deltas
      << " deltas, mean chain length "
      << util::format_fixed(info.mean_chain_length, 2) << '\n';
  for (const serve::SegmentStore::SegmentInfo& seg : info.segment_details) {
    out << "  seg w" << seg.writer << '/' << seg.seq << ": " << seg.anchors
        << " anchors, " << seg.deltas << " deltas, " << seg.live
        << " live chains, mean length "
        << util::format_fixed(seg.mean_chain_length, 2) << '\n';
  }
  return info.meta_ok && info.corrupt_records == 0 ? 0 : 2;
}

int cmd_policy(const util::Flags& flags, std::ostream& out,
               std::ostream& err) {
  const std::string sub =
      flags.positional().empty() ? "" : flags.positional().front();
  if (sub == "inspect") return cmd_policy_inspect(flags, out, err);
  err << "policy: expected the subcommand inspect (try 'coreda help')\n";
  return 1;
}

int cmd_faults_plan(const util::Flags& flags, std::ostream& out,
                    std::ostream& err) {
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::size_t rounds = flags.get_count("rounds", 6);
  const faults::FaultPlan plan = faults::FaultPlan::standard_chaos(seed, rounds);
  const std::string out_path = flags.get("out");
  if (out_path.empty()) {
    plan.save(out);
    return 0;
  }
  std::ofstream file(out_path);
  if (!file) {
    err << "faults plan: cannot write '" << out_path << "'\n";
    return 2;
  }
  plan.save(file);
  out << "Wrote standard chaos plan (seed " << seed << ", " << rounds
      << " chaos epochs, " << plan.sites.size() << " sites) to " << out_path
      << '\n';
  return 0;
}

int cmd_faults_replay(const util::Flags& flags, std::ostream& out,
                      std::ostream& err) {
  serve::ChaosFleetParams p;
  p.users = flags.get_count("users", 96);
  p.active = flags.get_count("active", 48);
  p.chaos_rounds = flags.get_count("rounds", 4);
  p.tail_rounds = flags.get_count("tail-rounds", 1);
  p.dir = flags.get("dir");
  if (p.dir.empty()) {
    p.dir = (std::filesystem::temp_directory_path() / "coreda_faults_replay")
                .string();
  }

  // The replay contract is {seed, plan}: a plan file fixes the schedule, an
  // explicit --seed re-rolls it without editing the file.
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  faults::FaultPlan plan;
  const std::string plan_path = flags.get("plan");
  if (plan_path.empty()) {
    plan = faults::FaultPlan::standard_chaos(seed, p.chaos_rounds);
  } else {
    std::ifstream file(plan_path);
    if (!file) {
      err << "faults replay: cannot read '" << plan_path << "'\n";
      return 2;
    }
    try {
      plan = faults::FaultPlan::parse(file);
    } catch (const std::exception& ex) {
      err << "faults replay: " << plan_path << ": " << ex.what() << '\n';
      return 2;
    }
    if (flags.has("seed")) plan.seed = seed;
  }

  exec::TrialRunner runner(exec::jobs_from_flags(flags));
  out << "Replaying fault plan seed " << plan.seed << " (" << plan.sites.size()
      << " sites) over " << p.users << " fleet users, " << p.chaos_rounds
      << " chaos + " << p.tail_rounds << " tail rounds x " << p.active
      << " sessions\n\n";

  serve::ChaosFleetSoak soak(p, std::move(plan));
  const serve::ChaosFleetResult result = soak.run(runner);

  util::TextTable rounds("Replay per round (cumulative counters)");
  rounds.set_header({"round", "epoch", "sessions", "dropped", "crashed",
                     "radio lost", "committed", "lost", "reopen bad"});
  for (std::size_t r = 0; r < result.rounds.size(); ++r) {
    const serve::ChaosRoundStats& rs = result.rounds[r];
    rounds.add_row({std::to_string(r), std::to_string(rs.epoch),
                    std::to_string(rs.sessions), std::to_string(rs.dropped),
                    std::to_string(rs.crashed_appends),
                    std::to_string(rs.radio_lost),
                    std::to_string(rs.committed_users),
                    std::to_string(rs.round_versions_lost),
                    std::to_string(rs.round_reopen_mismatches +
                                   rs.round_reopen_load_failures)});
  }
  out << rounds.render();

  out << "\nPer-site injection log:\n";
  soak.injector().report(out);
  out << '\n'
      << result.injected_crashes << " injected crashes, "
      << result.injected_corruptions << " corruptions, "
      << result.report.dropped_sessions << " dropped sessions, "
      << result.report.radio_lost_frames << " radio frames lost; "
      << result.invariant_violations << " invariant violations\n";
  if (result.invariant_violations != 0) {
    err << "faults replay: " << result.invariant_violations
        << " invariant violation(s) — committed_versions_lost="
        << result.committed_versions_lost
        << " reopen_mismatches=" << result.reopen_mismatches
        << " reopen_load_failures=" << result.reopen_load_failures << '\n';
    return 2;
  }
  return 0;
}

int cmd_faults(const util::Flags& flags, std::ostream& out,
               std::ostream& err) {
  const std::string sub =
      flags.positional().empty() ? "" : flags.positional().front();
  if (sub == "plan") return cmd_faults_plan(flags, out, err);
  if (sub == "replay") return cmd_faults_replay(flags, out, err);
  err << "faults: expected a subcommand plan|replay (try 'coreda help')\n";
  return 1;
}

int cmd_scenario_run(const util::Flags& flags, std::ostream& out,
                     std::ostream& err) {
  if (flags.positional().size() < 2) {
    err << "scenario run: expected a .scenario file "
           "(coreda scenario run tests/scenarios/interleaved_tea_brush"
           ".scenario)\n";
    return 1;
  }
  const std::string& path = flags.positional()[1];
  std::ifstream in(path);
  if (!in) {
    err << "scenario run: cannot read " << path << '\n';
    return 1;
  }
  const sim::ScenarioPlan plan = sim::ScenarioPlan::parse(in);
  const std::size_t jobs = flags.get_count("jobs", 1);
  const serve::ScenarioSummary sum =
      serve::run_scenario(plan, jobs == 0 ? 1 : jobs);
  out << serve::format_scenario_report(
      std::filesystem::path(path).stem().string(), plan, sum);
  // Incomplete sessions are a scenario outcome (high severity is supposed
  // to defeat some residents), not a failure of the run itself.
  return 0;
}

int cmd_scenario_check(const util::Flags& flags, std::ostream& out,
                       std::ostream& err) {
  if (flags.positional().size() < 2) {
    err << "scenario check: expected a .scenario file\n";
    return 1;
  }
  const std::string& path = flags.positional()[1];
  std::ifstream in(path);
  if (!in) {
    err << "scenario check: cannot read " << path << '\n';
    return 1;
  }
  const sim::ScenarioPlan plan = sim::ScenarioPlan::parse(in);
  std::stringstream canonical;
  plan.save(canonical);
  if (sim::ScenarioPlan::parse(canonical) != plan) {
    err << "scenario check: canonical form does not round-trip (bug)\n";
    return 2;
  }
  plan.save(out);
  return 0;
}

int cmd_scenario(const util::Flags& flags, std::ostream& out,
                 std::ostream& err) {
  const std::string sub =
      flags.positional().empty() ? "" : flags.positional().front();
  if (sub == "run") return cmd_scenario_run(flags, out, err);
  if (sub == "check") return cmd_scenario_check(flags, out, err);
  if (!sub.empty()) {
    err << "scenario: unknown subcommand '" << sub
        << "' (expected run|check, or no subcommand for the Figure 1 "
           "replay)\n";
    return 1;
  }
  adl::AdlLibrary library;
  core::ScenarioPlayer player(library);
  player.play_figure1(&out);
  return player.last_result().completed ? 0 : 2;
}

int cmd_home(const util::Flags& flags, std::ostream& out) {
  const std::size_t sessions = flags.get_count("sessions", 6);
  adl::AdlLibrary library;
  core::SystemConfig config;
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  core::HomeDeployment home(library, config);
  home.pretrain(120, config.seed + 3);

  patient::PatientProfile profile = profile_from(flags);
  const bool hints = flags.get_bool("hints");
  const char* rotation[] = {"Tea-making", "Tooth-brushing", "Hand-washing"};

  util::TextTable table("Multi-ADL home sessions");
  table.set_header({"#", "Attempted", "Recognized", "Completed", "Prompts"});
  int completed = 0;
  for (std::size_t i = 0; i < sessions; ++i) {
    const char* adl = rotation[i % 3];
    const core::SessionResult result = home.run_session(
        adl, profile, sim::Duration::minutes(40.0), hints ? adl : "");
    completed += result.completed;
    table.add_row({std::to_string(i + 1), adl,
                   result.recognized_adl.empty() ? "(hint only)"
                                                 : result.recognized_adl,
                   result.completed ? "yes" : "no",
                   std::to_string(result.prompts_total)});
  }
  out << table.render();
  out << completed << "/" << sessions << " sessions completed\n";
  return 0;
}

int cmd_report(const util::Flags& flags, std::ostream& out) {
  const std::size_t days = flags.get_count("days", 7);
  if (days == 0) {
    // Prompts/session divides by the day count.
    throw std::invalid_argument("flag --days expects a count >= 1, got '0'");
  }
  adl::AdlLibrary library;
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));

  util::TextTable table("Caregiver summary (" + std::to_string(days) +
                        " days, simulated)");
  table.set_header({"Severity", "ADL", "Completed", "Prompts/session"});
  for (double severity : {0.2, 0.5, 0.8}) {
    for (const char* adl_name : {"Tea-making", "Tooth-brushing"}) {
      const adl::Adl& adl = library.by_name(adl_name);
      core::SystemConfig config;
      config.seed = seed + static_cast<std::uint64_t>(severity * 100);
      core::HomeDeployment system(library, adl, config);
      trace::DatasetBuilder datasets(
          library, patient::PatientProfile::with_severity("T", 0.0),
          config.seed + 1);
      system.pretrain(datasets.sensed_training_set(adl, 120));

      const patient::PatientProfile profile =
          patient::PatientProfile::with_severity("Resident", severity);
      int completed = 0;
      std::size_t prompts = 0;
      for (std::size_t d = 0; d < days; ++d) {
        const auto result =
            system.run_session(profile, sim::Duration::minutes(45.0));
        completed += result.completed;
        prompts += result.prompts_total;
      }
      table.add_row(
          {util::format_fixed(severity, 1), adl_name,
           std::to_string(completed) + "/" + std::to_string(days),
           util::format_fixed(static_cast<double>(prompts) /
                                  static_cast<double>(days),
                              1)});
    }
  }
  out << table.render();
  return 0;
}

int cmd_retrain(const util::Flags& flags, std::ostream& out,
                std::ostream& err) {
  serve::ChaosServeParams params;
  params.users = flags.get_count("users", 12);
  params.slots = flags.get_count("slots", 3);
  params.drifted = flags.get_count("drifted", 3);
  params.tail_rounds = flags.get_count("rounds", 8);
  params.chaos_rounds = 0;
  params.burst = flags.get_count("burst", 2);
  params.threshold = flags.get_double("threshold", 2.5);
  if (params.users == 0 || params.drifted > params.users) {
    err << "retrain: need --users >= 1 and --drifted <= --users\n";
    return 1;
  }

  // The drift loop of the chaos soak, with an empty fault plan on a
  // memory-only store.
  serve::ChaosServeSoak soak(params, faults::FaultPlan{});
  exec::TrialRunner runner(exec::jobs_from_flags(flags));
  const serve::ChaosServeResult result = soak.run(runner);

  util::TextTable table("Closed-loop drift recovery (" +
                        std::to_string(params.users) + " users, " +
                        std::to_string(params.drifted) +
                        " on stale policies)");
  table.set_header({"round", "flagged", "retrains", "recovered"});
  for (std::size_t round = 0; round < result.rounds.size(); ++round) {
    const serve::ChaosServeRound& rs = result.rounds[round];
    table.add_row({std::to_string(round), std::to_string(rs.flagged),
                   std::to_string(rs.retrain_jobs),
                   std::to_string(rs.recovered_now) + "/" +
                       std::to_string(params.drifted)});
  }
  const std::size_t recovered =
      result.rounds.empty() ? 0 : result.rounds.back().recovered_now;
  out << table.render();
  out << result.report.sessions << " sessions served; "
      << result.report.retrain.jobs << " retrain jobs replayed "
      << result.report.retrain.episodes << " transcript episodes; "
      << recovered << "/" << params.drifted
      << " drifted users recovered (prompt EWMA back under "
      << util::format_fixed(params.threshold, 1) << ")\n";
  return recovered == params.drifted ? 0 : 2;
}

}  // namespace

int run_command(const util::Flags& flags, std::ostream& out,
                std::ostream& err) {
  try {
    const std::string& command = flags.command();
    if (command.empty() || command == "help") {
      out << kUsage;
      return command.empty() ? 1 : 0;
    }
    if (command == "list") return cmd_list(out);
    if (command == "simulate") return cmd_simulate(flags, out, err);
    if (command == "train") return cmd_train(flags, out, err);
    if (command == "prompt") return cmd_prompt(flags, out, err);
    if (command == "policy") return cmd_policy(flags, out, err);
    if (command == "faults") return cmd_faults(flags, out, err);
    if (command == "scenario") return cmd_scenario(flags, out, err);
    if (command == "report") return cmd_report(flags, out);
    if (command == "retrain") return cmd_retrain(flags, out, err);
    if (command == "home") return cmd_home(flags, out);
    err << "unknown command '" << command << "' (try 'coreda help')\n";
    return 1;
  } catch (const std::invalid_argument& e) {
    err << "error: " << e.what() << '\n';
    return 1;
  } catch (const std::out_of_range& e) {
    err << "error: " << e.what() << '\n';
    return 1;
  } catch (const std::exception& e) {
    err << "failure: " << e.what() << '\n';
    return 2;
  }
}

}  // namespace coreda::cli
