#include "tools/cli_commands.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "util/wire.hpp"

namespace coreda::cli {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult run(const std::vector<std::string>& tokens) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_command(util::Flags::parse(tokens), out, err);
  return {code, out.str(), err.str()};
}

TEST(CliTest, NoCommandShowsUsageAndFails) {
  const CliResult r = run({});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST(CliTest, HelpSucceeds) {
  const CliResult r = run({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("simulate"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  const CliResult r = run({"frobnicate"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, ListShowsCatalog) {
  const CliResult r = run({"list"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("Tea-making"), std::string::npos);
  EXPECT_NE(r.out.find("electronic pot (22)"), std::string::npos);
  EXPECT_NE(r.out.find("Dressing"), std::string::npos);
}

TEST(CliTest, SimulateRequiresAdl) {
  const CliResult r = run({"simulate"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--adl"), std::string::npos);
}

TEST(CliTest, SimulateUnknownAdlFails) {
  const CliResult r = run({"simulate", "--adl=Cooking"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("Cooking"), std::string::npos);
}

TEST(CliTest, SimulateRunsSessions) {
  const CliResult r = run({"simulate", "--adl=Tea-making", "--sessions=2",
                           "--severity=0.3", "--seed=5"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("2 sessions completed"), std::string::npos);
}

TEST(CliTest, BadFlagValueReportsCleanError) {
  const CliResult r = run({"simulate", "--adl=Tea-making",
                           "--sessions=two"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--sessions"), std::string::npos);
}

/// A fresh (absent) store directory under the test temp dir.
std::string fresh_store(const char* name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(CliTest, TrainPromptRoundTrip) {
  const std::string dir = fresh_store("cli_tea_store");
  const CliResult train = run(
      {"train", "--adl=Tea-making", "--out=" + dir, "--episodes=80"});
  EXPECT_EQ(train.code, 0) << train.err;
  EXPECT_NE(train.out.find("100%"), std::string::npos);
  EXPECT_NE(train.out.find("user 0, version 2"), std::string::npos);

  const CliResult prompt = run({"prompt", "--adl=Tea-making",
                                "--policy=" + dir, "--prev=0", "--cur=21"});
  EXPECT_EQ(prompt.code, 0) << prompt.err;
  EXPECT_NE(prompt.out.find("electronic pot"), std::string::npos);

  // Re-training into the store continues user 0's version sequence.
  const CliResult again = run(
      {"train", "--adl=Tea-making", "--out=" + dir, "--episodes=80"});
  EXPECT_EQ(again.code, 0) << again.err;
  EXPECT_NE(again.out.find("user 0, version 3"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(CliTest, PromptRejectsForeignContext) {
  const std::string dir = fresh_store("cli_tea_store2");
  run({"train", "--adl=Tea-making", "--out=" + dir, "--episodes=40"});
  const CliResult r = run({"prompt", "--adl=Tea-making",
                           "--policy=" + dir, "--prev=0", "--cur=99"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("vocabulary"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(CliTest, PromptMissingPolicyFileFails) {
  const CliResult r = run({"prompt", "--adl=Tea-making",
                           "--policy=/nonexistent/x.policy"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("store.meta"), std::string::npos);
  // A directory that is not a store is refused — and never turned into one.
  const std::string empty = fresh_store("cli_not_a_store");
  std::filesystem::create_directories(empty);
  const CliResult not_store = run({"prompt", "--adl=Tea-making",
                                   "--policy=" + empty});
  EXPECT_EQ(not_store.code, 2);
  EXPECT_FALSE(std::filesystem::exists(empty + "/store.meta"));
  std::filesystem::remove_all(empty);
}

TEST(CliTest, PolicySaveLoadInspectV2RoundTrip) {
  // Save (`train --out`), load (`prompt --policy`) and inspect one store in
  // the only on-disk policy format: CRDASEG2 segments of CRDAREC2 records.
  const std::string dir = fresh_store("cli_v2_store");
  const CliResult save = run(
      {"train", "--adl=Tea-making", "--out=" + dir, "--episodes=80"});
  EXPECT_EQ(save.code, 0) << save.err;
  {
    std::ifstream f(dir + "/seg-w0-000000.seg", std::ios::binary);
    char magic[8] = {};
    f.read(magic, 8);
    EXPECT_EQ(std::string(magic, 8), "CRDASEG2");
    // The first record follows the 40-byte segment header.
    f.seekg(40);
    f.read(magic, 8);
    EXPECT_EQ(std::string(magic, 8), "CRDAREC2");
  }

  const CliResult load = run({"prompt", "--adl=Tea-making",
                              "--policy=" + dir, "--prev=0", "--cur=21"});
  EXPECT_EQ(load.code, 0) << load.err;
  EXPECT_NE(load.out.find("electronic pot"), std::string::npos);

  // The store is inspectable without a learner.
  const CliResult inspect = run({"policy", "inspect", "--in=" + dir});
  EXPECT_EQ(inspect.code, 0) << inspect.err;
  EXPECT_NE(inspect.out.find("coreda-policy store"), std::string::npos);
  EXPECT_NE(inspect.out.find("meta: ok"), std::string::npos);
  EXPECT_NE(inspect.out.find("table 0: 25 states x 8 actions"),
            std::string::npos)
      << inspect.out;
  EXPECT_NE(inspect.out.find("records: 1 (1 live, 0 dead, 0 corrupt)"),
            std::string::npos)
      << inspect.out;
  EXPECT_NE(inspect.out.find("users: 1 (max version 2)"), std::string::npos);
  EXPECT_NE(inspect.out.find("1 anchors, 0 deltas"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(CliTest, PolicyInspectReportsAnotherTableCountAsAMismatch) {
  // A correctly checksummed store.meta of `coreda train`'s store, forged to
  // claim no table or two, over no, one or two copies of its table: inspect
  // refuses it without scanning.
  const std::string dir = fresh_store("cli_table_count");
  ASSERT_EQ(run({"train", "--adl=Tea-making", "--out=" + dir,
                 "--episodes=40"})
                .code,
            0);
  std::vector<unsigned char> meta;
  {
    std::ifstream in(dir + "/store.meta", std::ios::binary);
    meta.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(util::wire::load_u64(meta.data() + 24), 1u);
  const std::vector<unsigned char> table(meta.begin() + 32, meta.end() - 8);
  const std::pair<std::uint64_t, std::uint64_t> forgeries[] = {
      {0, 0}, {2, 2}, {2, 1}, {0, 1}};  // claimed count, table copies
  for (const auto& [count, copies] : forgeries) {
    std::vector<unsigned char> forged(meta.begin(), meta.begin() + 32);
    util::wire::store_u64(forged.data() + 24, count);
    for (std::uint64_t t = 0; t < copies; ++t) {
      forged.insert(forged.end(), table.begin(), table.end());
    }
    forged.resize(forged.size() + 8);
    util::wire::store_u64(forged.data() + forged.size() - 8,
                          util::wire::checksum64(forged.data(),
                                                 forged.size() - 8));
    {
      std::ofstream out(dir + "/store.meta",
                        std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(forged.data()),
                static_cast<std::streamsize>(forged.size()));
    }
    const CliResult inspect = run({"policy", "inspect", "--in=" + dir});
    EXPECT_EQ(inspect.code, 2) << count << "/" << copies;
    EXPECT_NE(inspect.out.find("meta: MISMATCH"), std::string::npos)
        << count << inspect.out;
    EXPECT_EQ(inspect.out.find("table 0:"), std::string::npos)
        << count << inspect.out;
    EXPECT_NE(inspect.out.find("records: 0 "), std::string::npos)
        << count << inspect.out;
  }
  std::filesystem::remove_all(dir);
}

TEST(CliTest, PolicyInspectFlagsCorruption) {
  const std::string dir = fresh_store("cli_bad_store");
  run({"train", "--adl=Tea-making", "--out=" + dir, "--episodes=40"});
  {
    // Flip a byte deep in the only record's Q block (the record starts
    // after the 40-byte segment header).
    std::fstream f(dir + "/seg-w0-000000.seg",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40 + 100);
    f.put('\x7f');
  }
  const CliResult inspect = run({"policy", "inspect", "--in=" + dir});
  EXPECT_EQ(inspect.code, 2);
  EXPECT_NE(inspect.out.find("0 live, 0 dead, 1 corrupt"), std::string::npos)
      << inspect.out;

  // Prompting from the corrupt store must fail loudly, not half-apply.
  const CliResult prompt = run({"prompt", "--adl=Tea-making",
                                "--policy=" + dir, "--prev=0", "--cur=21"});
  EXPECT_EQ(prompt.code, 2);
  EXPECT_NE(prompt.err.find("no policy"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(CliTest, PolicyRequiresKnownSubcommand) {
  const CliResult r = run({"policy", "frobnicate"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("inspect"), std::string::npos);
  // The per-file snapshot subcommands are gone: `train` writes a store,
  // `prompt` and `policy inspect` read one.
  EXPECT_EQ(run({"policy", "save", "--adl=Tea-making"}).code, 1);
  const CliResult missing = run({"policy", "inspect"});
  EXPECT_EQ(missing.code, 1);
  EXPECT_NE(missing.err.find("--in"), std::string::npos);
  const CliResult absent =
      run({"policy", "inspect", "--in=/nonexistent/x.policy"});
  EXPECT_EQ(absent.code, 2);
}

TEST(CliTest, PolicyMigrateRejectsBadInputs) {
  // `policy migrate` is gone with the per-file snapshots it converted: an
  // old invocation is refused as an unknown subcommand, whatever its
  // flags, and creates nothing.
  const CliResult no_flags = run({"policy", "migrate"});
  EXPECT_EQ(no_flags.code, 1);
  EXPECT_NE(no_flags.err.find("inspect"), std::string::npos);
  const std::string out = fresh_store("cli_migrate_none");
  const CliResult old_call =
      run({"policy", "migrate", "--adl=Tea-making",
           "--from=/nonexistent/dir", "--out=" + out});
  EXPECT_EQ(old_call.code, 1);
  EXPECT_FALSE(std::filesystem::exists(out));

  // A directory that is not a segment store fails inspect cleanly, and is
  // never turned into one.
  const std::string empty = fresh_store("cli_inspect_empty");
  std::filesystem::create_directories(empty);
  const CliResult not_store = run({"policy", "inspect", "--in=" + empty});
  EXPECT_EQ(not_store.code, 2);
  EXPECT_NE(not_store.err.find("store.meta"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(empty + "/store.meta"));
  std::filesystem::remove_all(empty);
}

TEST(CliTest, ScenarioReplaysFigure1) {
  const CliResult r = run({"scenario"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("red LED"), std::string::npos);
  EXPECT_NE(r.out.find("ADL complete"), std::string::npos);
}

TEST(CliTest, ScenarioRunExecutesAPlanFile) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "cli_plan.scenario")
          .string();
  {
    std::ofstream out(path);
    out << "seed = 5\nusers = 2\nhint = Tea-making\n\n"
           "[segment Tea-making]\nsteps = 2\n\n"
           "[segment Tooth-brushing]\n\n"
           "[segment Tea-making]\nresume = true\n";
  }
  const CliResult r = run({"scenario", "run", path, "--jobs=2"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("sessions=2"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("checksum="), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, ScenarioRunRejectsANegativeJobCount) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "cli_jobs.scenario")
          .string();
  {
    std::ofstream out(path);
    out << "seed = 5\nusers = 2\n\n[segment Tea-making]\n";
  }
  const CliResult r = run({"scenario", "run", path, "--jobs=-2"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error: flag --jobs"), std::string::npos) << r.err;
  EXPECT_TRUE(r.out.empty()) << r.out;
  std::remove(path.c_str());
}

// A job count above the runner's ceiling is refused before any worker
// starts. The count is the first one above the ceiling, so even a broken
// ceiling could not start thousands of threads here.
TEST(CliTest, ScenarioRunRejectsAJobCountAboveTheCeiling) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "cli_ceiling.scenario")
          .string();
  {
    std::ofstream out(path);
    out << "seed = 5\nusers = 2\n\n[segment Tea-making]\n";
  }
  const CliResult r = run({"scenario", "run", path, "--jobs=257"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error: "), std::string::npos) << r.err;
  EXPECT_TRUE(r.out.empty()) << r.out;
  std::remove(path.c_str());
}

TEST(CliTest, ScenarioCheckPrintsTheCanonicalForm) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "cli_check.scenario")
          .string();
  {
    std::ofstream out(path);
    out << "seed = 9\n\n[segment Hand-washing]\n";
  }
  const CliResult r = run({"scenario", "check", path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("# coreda scenario plan v1"), std::string::npos);
  EXPECT_NE(r.out.find("[segment Hand-washing]"), std::string::npos);
  std::remove(path.c_str());
}

// A negative count used to parse as 2^64 - 1 forced decisions, which a
// run would queue until memory ran out; check refuses the file instead.
TEST(CliTest, ScenarioCheckRefusesNegativeCountsAndNonFiniteNumbers) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "cli_bad.scenario")
          .string();
  for (const char* body :
       {"[segment Tea-making]\nwrong_tool = -1\n",
        "users = -1\n[segment Tea-making]\n",
        "max_minutes = inf\n[segment Tea-making]\n",
        "[segment Tea-making]\n[interrupt]\npause_s = 1e300\n"}) {
    {
      std::ofstream out(path);
      out << body;
    }
    const CliResult r = run({"scenario", "check", path});
    EXPECT_EQ(r.code, 2) << body;
    EXPECT_NE(r.err.find("failure: scenario plan line"), std::string::npos)
        << r.err;
    EXPECT_TRUE(r.out.empty()) << r.out;
  }
  std::remove(path.c_str());
}

TEST(CliTest, ScenarioRunAndCheckValidateTheirInputs) {
  EXPECT_EQ(run({"scenario", "run"}).code, 1);
  EXPECT_EQ(run({"scenario", "run", "/no/such/file.scenario"}).code, 1);
  EXPECT_EQ(run({"scenario", "check"}).code, 1);
  EXPECT_EQ(run({"scenario", "wibble"}).code, 1);
}

TEST(CliTest, HomeRunsMultiAdlSessions) {
  const CliResult r = run({"home", "--sessions=3", "--severity=0.3",
                           "--hints"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Multi-ADL home sessions"), std::string::npos);
  EXPECT_NE(r.out.find("Tea-making"), std::string::npos);
}

TEST(CliTest, ReportProducesTable) {
  const CliResult r = run({"report", "--days=2"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("Caregiver summary"), std::string::npos);
  EXPECT_NE(r.out.find("Tooth-brushing"), std::string::npos);
}

TEST(CliTest, HomeAndSimulateRejectNegativeSessionCounts) {
  for (const std::vector<std::string>& tokens :
       {std::vector<std::string>{"home", "--sessions=-2"},
        std::vector<std::string>{"simulate", "--adl=Tea-making",
                                 "--sessions=-1"}}) {
    const CliResult r = run(tokens);
    EXPECT_EQ(r.code, 1) << tokens[0];
    EXPECT_NE(r.err.find("error: flag --sessions"), std::string::npos)
        << r.err;
    EXPECT_TRUE(r.out.empty()) << r.out;
  }
}

TEST(CliTest, ReportRejectsADayCountBelowOne) {
  for (const char* flag : {"--days=0", "--days=-3"}) {
    const CliResult r = run({"report", flag});
    EXPECT_EQ(r.code, 1) << flag;
    EXPECT_NE(r.err.find("error: flag --days"), std::string::npos) << r.err;
    EXPECT_TRUE(r.out.empty()) << r.out;
  }
}

TEST(CliTest, RetrainClosesTheLoopAndReportsFullRecovery) {
  const CliResult r = run({"retrain", "--users=8", "--slots=2",
                           "--drifted=2", "--rounds=8", "--jobs=2"});
  EXPECT_EQ(r.code, 0) << r.out << r.err;  // 0 iff every drifted recovered
  EXPECT_NE(r.out.find("Closed-loop drift recovery"), std::string::npos);
  EXPECT_NE(r.out.find("2/2 drifted users recovered"), std::string::npos);

  // Same fleet, same rounds, different worker count: the whole report is
  // byte-identical.
  const CliResult serial = run({"retrain", "--users=8", "--slots=2",
                                "--drifted=2", "--rounds=8", "--jobs=1"});
  EXPECT_EQ(serial.code, 0);
  EXPECT_EQ(serial.out, r.out);
}

TEST(CliTest, RetrainValidatesItsFlags) {
  const CliResult r = run({"retrain", "--users=2", "--drifted=5"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--drifted"), std::string::npos);
}

TEST(CliTest, RetrainRejectsNegativeCounts) {
  for (const char* flag : {"--rounds=-1", "--burst=-1", "--users=-3"}) {
    const CliResult r = run({"retrain", flag});
    EXPECT_EQ(r.code, 1) << flag;
    EXPECT_NE(r.err.find("error: flag --"), std::string::npos) << r.err;
    EXPECT_TRUE(r.out.empty()) << r.out;
  }
}

TEST(CliTest, FaultsRejectNegativeCounts) {
  for (const char* sub : {"plan", "replay"}) {
    const CliResult r = run({"faults", sub, "--rounds=-1"});
    EXPECT_EQ(r.code, 1) << sub;
    EXPECT_NE(r.err.find("error: flag --rounds"), std::string::npos)
        << r.err;
  }
  const CliResult tail = run({"faults", "replay", "--tail-rounds=-1"});
  EXPECT_EQ(tail.code, 1);
  EXPECT_NE(tail.err.find("error: flag --tail-rounds"), std::string::npos);
}

TEST(CliTest, FaultsRequiresASubcommand) {
  const CliResult r = run({"faults"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("plan|replay"), std::string::npos);
}

TEST(CliTest, FaultsPlanDumpsAndReplayConsumesIt) {
  // `faults plan` with no --out writes the plan text to stdout.
  const CliResult dumped = run({"faults", "plan", "--seed=9", "--rounds=2"});
  EXPECT_EQ(dumped.code, 0) << dumped.err;
  EXPECT_NE(dumped.out.find("seed = 9"), std::string::npos);
  EXPECT_NE(dumped.out.find("[site segment_store.pre_publish]"),
            std::string::npos);

  // With --out it lands in a file that `faults replay --plan=` accepts.
  const std::string plan_path = ::testing::TempDir() + "/cli_chaos.plan";
  const std::string dir = ::testing::TempDir() + "/cli_faults_replay";
  std::filesystem::remove_all(dir);
  const CliResult saved = run({"faults", "plan", "--seed=9", "--rounds=2",
                               "--out=" + plan_path});
  EXPECT_EQ(saved.code, 0) << saved.err;

  const CliResult replay =
      run({"faults", "replay", "--plan=" + plan_path, "--users=48",
           "--active=24", "--rounds=2", "--tail-rounds=1", "--jobs=2",
           "--dir=" + dir});
  EXPECT_EQ(replay.code, 0) << replay.out << replay.err;
  // The per-site injection log names the seams and the summary proves the
  // soak both injected faults and held its invariants.
  EXPECT_NE(replay.out.find("Per-site injection log"), std::string::npos);
  EXPECT_NE(replay.out.find("segment_store.pre_publish"), std::string::npos);
  EXPECT_NE(replay.out.find("radio.loss_burst"), std::string::npos);
  EXPECT_NE(replay.out.find("0 invariant violations"), std::string::npos);

  // Replay means replay: the same {seed, plan} at a different job count
  // prints the identical report.
  std::filesystem::remove_all(dir);
  const CliResult serial =
      run({"faults", "replay", "--plan=" + plan_path, "--users=48",
           "--active=24", "--rounds=2", "--tail-rounds=1", "--jobs=1",
           "--dir=" + dir});
  EXPECT_EQ(serial.code, 0);
  EXPECT_EQ(serial.out, replay.out);
}

TEST(CliTest, FaultsReplayRejectsAMalformedPlan) {
  const std::string plan_path = ::testing::TempDir() + "/cli_bad.plan";
  {
    std::ofstream file(plan_path);
    file << "seed = 1\n[site x]\nrate = not-a-number\n";
  }
  const CliResult r = run({"faults", "replay", "--plan=" + plan_path});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("line 3"), std::string::npos);
}

}  // namespace
}  // namespace coreda::cli
