// The drain's retrain stage, pinned: each slot trial serves, then retrains
// its own due users. The digests below cover every user's final table
// bits, version (1 + the tables a retrain staged) and ServeUserStats, the
// retrain counters and the pool's invalidations, on the two cohorts the
// retrain and chaos benches run, and must come out the same at any job
// count.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <string>

#include "exec/trial_runner.hpp"
#include "faults/faults.hpp"
#include "serve/chaos.hpp"

namespace coreda::serve {
namespace {

/// FNV-1a over the little-endian bytes of each value.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
};

std::uint64_t drain_digest(const ServeEngine& engine,
                           const ServeReport& report) {
  Fnv d;
  const PolicyStore& store = engine.store();
  d.add(report.users.size());
  for (UserId u = 0; u < report.users.size(); ++u) {
    d.add(store.version(u));
    const rl::QTable& q = store.q(u);
    for (rl::StateId s = 0; s < q.num_states(); ++s) {
      for (rl::ActionId a = 0; a < q.num_actions(); ++a) {
        d.add(std::bit_cast<std::uint64_t>(q.get(s, a)));
      }
    }
    const ServeUserStats& st = report.users[u];
    d.add(st.sessions);
    d.add(st.completed);
    d.add(st.prompts);
    d.add(std::bit_cast<std::uint64_t>(st.prompt_ewma));
    d.add(st.needs_retraining);
    d.add(st.awaiting_recovery);
    d.add(st.retrains);
    d.add(st.last_retrain_session);
    d.add(st.checksum);
  }
  d.add(report.retrain.jobs);
  d.add(report.retrain.episodes);
  d.add(report.retrain.aborted);
  d.add(report.retrain.crashed_stages);
  d.add(engine.pool().invalidations());
  return d.h;
}

// bench_retrain_recovery's default cohort: 24 users, 6 on stale tables,
// 4 slots, 10 rounds of 2 sessions, on a memory-only store, no faults.
TEST(DrainStageDigest, RetrainBenchCohortIsPinnedAtAnyJobCount) {
  ChaosServeParams p;
  p.users = 24;
  p.drifted = 6;
  p.slots = 4;
  p.chaos_rounds = 0;
  p.tail_rounds = 10;
  p.burst = 2;
  for (const std::size_t jobs : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "jobs " << jobs);
    ChaosServeSoak soak(p, faults::FaultPlan{});
    exec::TrialRunner runner(jobs);
    const ChaosServeResult result = soak.run(runner);
    EXPECT_EQ(result.report.retrain.jobs, 13u);
    EXPECT_EQ(drain_digest(soak.engine(), result.report),
              0x00ed021f749f67eaULL);
  }
}

// bench_chaos_soak's drift soak: the same cohort on a segment store over
// 6 rounds of standard chaos (seed 1) and 8 clean ones, through injected
// retrain aborts and crashed retrain appends.
TEST(DrainStageDigest, ChaosSoakIsPinnedAtAnyJobCount) {
  ChaosServeParams p;
  p.users = 24;
  p.drifted = 6;
  p.slots = 4;
  p.chaos_rounds = 6;
  p.tail_rounds = 8;
  p.burst = 2;
  for (const std::size_t jobs : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "jobs " << jobs);
    p.dir = ::testing::TempDir() + "/coreda_drain_stage_" +
            std::to_string(jobs);
    ChaosServeSoak soak(p,
                        faults::FaultPlan::standard_chaos(1, p.chaos_rounds));
    exec::TrialRunner runner(jobs);
    const ChaosServeResult result = soak.run(runner);
    EXPECT_EQ(result.report.retrain.jobs, 35u);
    EXPECT_EQ(result.report.retrain.aborted, 4u);
    EXPECT_EQ(result.report.retrain.crashed_stages, 4u);
    EXPECT_EQ(result.invariant_violations, 0u);
    EXPECT_EQ(drain_digest(soak.engine(), result.report),
              0xbec54066a1d34650ULL);
    std::filesystem::remove_all(p.dir);
  }
}

}  // namespace
}  // namespace coreda::serve
