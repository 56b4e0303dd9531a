// Byte-identity of the SoA LaneEngine against the scalar TD(λ) stack.
//
// Each slot of a lane must evolve its Q table exactly as an independent
// TdLambdaQLearning + EpsilonGreedyPolicy pair would — the same IEEE-754
// operation sequence, the same RNG draw order — regardless of lane width.
// train_episode() is the engine's only training entry point, so every case
// feeds both sides the same recorded episodes and compares every Q cell
// bit-for-bit and the RNG streams after each one. The *MatchesScalar
// streams mix aliased s == s' steps, terminal and truncated ends,
// exploration with decaying ε and ragged per-slot lengths on lanes of 1,
// 4 and 8 slots; the TrainEpisode* cases add random walks that revisit states,
// chains long enough to reach the trace cutoff age, cold all-tie and warm
// tables, and the configurations that must take the per-transition
// fallback. Runs under whatever kernel path the host dispatches
// (COREDA_LANE_SIMD=0 forces scalar; the CI default on AVX2 and AVX-512
// machines exercises the vector kernels).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "rl/lane_engine.hpp"
#include "support/policy.hpp"
#include "support/td_lambda.hpp"
#include "util/rng.hpp"

namespace coreda::rl {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

struct ScalarSide {
  TdLambdaQLearning learner;
  EpsilonGreedyPolicy policy;
  util::Rng rng;

  ScalarSide(std::size_t S, std::size_t A, TdLambdaConfig td, double eps,
             std::uint64_t seed)
      : learner(S, A, td), policy(eps, 0.978, 0.005), rng(seed) {}
};

void expect_tables_equal(const QTable& scalar, const LaneEngine& engine,
                         std::size_t slot, const char* ctx) {
  const double* lane = engine.slot_q(slot);
  for (StateId s = 0; s < scalar.num_states(); ++s) {
    for (ActionId a = 0; a < scalar.num_actions(); ++a) {
      const std::size_t i =
          static_cast<std::size_t>(s) * scalar.num_actions() + a;
      ASSERT_EQ(bits(lane[i]), bits(scalar.get(s, a)))
          << ctx << ": slot " << slot << " Q(" << s << "," << a
          << ") lane=" << lane[i] << " scalar=" << scalar.get(s, a);
    }
  }
}

/// A recorded episode for train_episode(): states s_0 … s_n and one reward
/// row per transition.
struct Episode {
  std::vector<StateId> states;
  std::vector<std::vector<double>> rewards;
  bool terminal = false;
};

/// The scalar stack's episode: EpsilonGreedyPolicy::select, observe() and
/// (when `sweep`) update_counterfactual_row() per transition.
void train_scalar(TdLambdaQLearning& learner, EpsilonGreedyPolicy& policy,
                  util::Rng& rng, const Episode& e, bool sweep) {
  const std::size_t n = e.rewards.size();
  learner.begin_episode();
  for (std::size_t t = 0; t < n; ++t) {
    const StateId s = e.states[t];
    const bool terminal = e.terminal && t + 1 == n;
    const ActionId a = policy.select(learner.q(), s, rng);
    learner.observe(Transition{s, a, e.rewards[t][a], e.states[t + 1],
                               terminal});
    if (sweep) {
      learner.update_counterfactual_row(s, e.rewards[t], a, e.states[t + 1],
                                        terminal);
    }
  }
}

/// The lane's episode: one train_episode() call on `slot`.
void train_lane(LaneEngine& engine, std::size_t slot, double epsilon,
                util::Rng& rng, const Episode& e, bool sweep) {
  std::vector<const double*> rows;
  for (const std::vector<double>& row : e.rewards) rows.push_back(row.data());
  engine.train_episode(slot,
                       Trajectory{e.states.data(), rows.data(),
                                  static_cast<std::uint32_t>(rows.size()),
                                  e.terminal},
                       epsilon, rng, sweep);
}

/// Both sides drew the same number of values from identically seeded
/// streams.
void expect_same_stream(util::Rng lane, util::Rng scalar) {
  EXPECT_EQ(lane(), scalar());
}

/// Drives `width` slots through 30 randomized episodes each, the scalar
/// stack transition by transition and the lane through train_episode(),
/// asserting bitwise equality after every episode. The streams hold
/// aliased s == s' steps (about 1/5: hazards that hand the episode to the
/// per-transition fallback, and the aliased sweep), -0.0 rewards, terminal
/// and truncated ends and ragged lengths; ε decays per episode.
void run_equivalence(std::size_t width, TdLambdaConfig td, bool sweep,
                     std::uint64_t seed) {
  constexpr std::size_t S = 25;
  constexpr std::size_t A = 8;
  constexpr std::size_t kEpisodes = 30;
  const double eps0 = 0.2;

  LaneEngine engine(width, S, A, /*trace_capacity=*/4, td);
  std::vector<ScalarSide> scalar;
  std::vector<util::Rng> lane_rng;
  std::vector<double> lane_eps(width, eps0);
  std::vector<util::Rng> env;  // per-slot transition-stream generators
  for (std::size_t w = 0; w < width; ++w) {
    scalar.emplace_back(S, A, td, eps0, seed + w);
    lane_rng.emplace_back(seed + w);
    env.emplace_back(seed * 131 + w);
  }

  for (std::size_t e = 0; e < kEpisodes; ++e) {
    for (std::size_t w = 0; w < width; ++w) {
      // Ragged: each slot's episode has its own length this round.
      const std::size_t len = 1 + env[w].pick_index(9);
      Episode ep;
      ep.states.push_back(static_cast<StateId>(env[w].pick_index(S)));
      ep.rewards.assign(len, std::vector<double>(A));
      for (std::size_t t = 0; t < len; ++t) {
        ep.terminal = t + 1 == len && env[w].bernoulli(0.5);
        const StateId s = ep.states.back();
        ep.states.push_back(env[w].bernoulli(0.2)
                                ? s
                                : static_cast<StateId>(env[w].pick_index(S)));
        for (double& r : ep.rewards[t]) {
          r = (env[w].uniform() - 0.5) * 200.0;
        }
        if (env[w].bernoulli(0.1)) {
          ep.rewards[t][env[w].pick_index(A)] = -0.0;
        }
      }

      train_scalar(scalar[w].learner, scalar[w].policy, scalar[w].rng, ep,
                   sweep);
      train_lane(engine, w, lane_eps[w], lane_rng[w], ep, sweep);
      scalar[w].policy.decay_epsilon();
      lane_eps[w] = std::max(0.005, lane_eps[w] * 0.978);
      expect_tables_equal(scalar[w].learner.q(), engine, w, "post-episode");
      expect_same_stream(lane_rng[w], scalar[w].rng);
    }
  }
}

TdLambdaConfig planner_td() {
  TdLambdaConfig td;
  td.alpha = 0.1;
  td.initial_q = 1000.0;
  return td;
}

TEST(LaneEngine, Width1MatchesScalar) {
  run_equivalence(1, planner_td(), /*sweep=*/true, 42);
}

TEST(LaneEngine, Width4MatchesScalar) {
  run_equivalence(4, planner_td(), /*sweep=*/true, 43);
}

TEST(LaneEngine, Width8MatchesScalar) {
  run_equivalence(8, planner_td(), /*sweep=*/true, 44);
}

TEST(LaneEngine, NoSweepMatchesScalar) {
  run_equivalence(4, planner_td(), /*sweep=*/false, 45);
}

TEST(LaneEngine, NoWatkinsCutMatchesScalar) {
  TdLambdaConfig td = planner_td();
  td.watkins_cut = false;
  run_equivalence(4, td, /*sweep=*/true, 47);
}

void fill_rewards(Episode& e, std::size_t actions, util::Rng& rng) {
  e.rewards.assign(e.states.size() - 1, std::vector<double>(actions));
  for (std::vector<double>& row : e.rewards) {
    for (double& r : row) r = (rng.uniform() - 0.5) * 200.0;
    if (rng.bernoulli(0.1)) row[rng.pick_index(actions)] = -0.0;
  }
  e.terminal = rng.bernoulli(0.5);
}

/// A walk of up to 12 transitions over `states` states: about 1/5 of the
/// steps stay put (s' == s) and the rest jump anywhere, so states come back
/// inside open trace windows.
Episode random_walk(std::size_t states, std::size_t actions, util::Rng& rng) {
  Episode e;
  e.states.push_back(static_cast<StateId>(rng.pick_index(states)));
  const std::size_t len = 1 + rng.pick_index(12);
  for (std::size_t t = 0; t < len; ++t) {
    e.states.push_back(rng.bernoulli(0.2)
                           ? e.states.back()
                           : static_cast<StateId>(rng.pick_index(states)));
  }
  fill_rewards(e, actions, rng);
  return e;
}

/// `transitions` transitions through distinct states from `first`.
Episode chain(std::size_t first, std::size_t transitions, std::size_t actions,
              util::Rng& rng) {
  Episode e;
  for (std::size_t t = 0; t <= transitions; ++t) {
    e.states.push_back(static_cast<StateId>(first + t));
  }
  fill_rewards(e, actions, rng);
  return e;
}

/// A table of distinct random values: every greedy choice is unique, so no
/// Watkins cut closes a trace window before a hazard does.
QTable distinct_table(std::size_t states, std::size_t actions,
                      std::uint64_t seed) {
  QTable q(states, actions, 0.0);
  util::Rng rng(seed);
  for (StateId s = 0; s < states; ++s) {
    for (ActionId a = 0; a < actions; ++a) {
      q.set(s, a, 500.0 + 500.0 * rng.uniform());
    }
  }
  return q;
}

/// Trains `episodes` through train_episode() on slot 1 of a width-3 engine
/// and through TdLambdaQLearning + EpsilonGreedyPolicy at a fixed ε, both
/// from `start`, asserting bitwise-equal tables after every episode.
/// Returns the engine's sequential_episodes().
std::uint64_t train_episodes(const QTable& start, TdLambdaConfig td,
                             bool sweep, double epsilon,
                             const std::vector<Episode>& episodes) {
  const std::size_t actions = start.num_actions();
  TdLambdaQLearning learner(start.num_states(), actions, td);
  learner.q() = start;
  EpsilonGreedyPolicy policy(epsilon, 1.0, 0.0);
  util::Rng scalar_rng(77);
  util::Rng lane_rng(77);
  LaneEngine engine(3, start.num_states(), actions, 4, td);
  engine.load(1, start);
  for (const Episode& e : episodes) {
    train_scalar(learner, policy, scalar_rng, e, sweep);
    train_lane(engine, 1, epsilon, lane_rng, e, sweep);
    expect_tables_equal(learner.q(), engine, 1, "train_episode");
    expect_same_stream(lane_rng, scalar_rng);
  }
  return engine.sequential_episodes();
}

// Rows of 3, 6 and 8 actions run the AVX-512 body where the CPU has it;
// 12 actions always run the scalar body (COREDA_LANE_SIMD=0 forces it for
// every width).
TEST(LaneEngine, TrainEpisodeMatchesScalarOnRandomWalks) {
  for (const std::size_t actions : {3u, 6u, 8u, 12u}) {
    SCOPED_TRACE(testing::Message() << actions << " actions");
    constexpr std::size_t kStates = 25;
    util::Rng rng(100 + actions);
    std::vector<Episode> episodes;
    for (int i = 0; i < 60; ++i) {
      episodes.push_back(random_walk(kStates, actions, rng));
    }
    const QTable cold(kStates, actions, 1000.0);  // all-tie rows
    const QTable warm = distinct_table(kStates, actions, actions);
    for (const bool sweep : {true, false}) {
      EXPECT_GT(train_episodes(cold, planner_td(), sweep, 0.2, episodes), 0u);
      EXPECT_GT(train_episodes(warm, planner_td(), sweep, 0.2, episodes), 0u);
      EXPECT_GT(train_episodes(warm, planner_td(), sweep, 1e-12, episodes),
                0u);
    }
    TdLambdaConfig no_cut = planner_td();
    no_cut.watkins_cut = false;
    train_episodes(cold, no_cut, true, 0.2, episodes);
  }
}

TEST(LaneEngine, TrainEpisodeUsesThePerTransitionPathWhereItMust) {
  constexpr std::size_t kStates = 25;
  constexpr std::size_t kActions = 8;
  util::Rng rng(7);
  std::vector<Episode> episodes;
  for (int i = 0; i < 30; ++i) {
    episodes.push_back(random_walk(kStates, kActions, rng));
  }
  const QTable warm = distinct_table(kStates, kActions, 3);
  EXPECT_EQ(train_episodes(warm, planner_td(), true, 0.0, episodes), 30u);
  EXPECT_EQ(train_episodes(warm, planner_td(), true, 1.0, episodes), 30u);
}

TEST(LaneEngine, TrainEpisodeRunsHazardFreeEpisodesInOnePass) {
  // Distinct states and windows shorter than the cutoff age (40 entries at
  // γλ = 0.63): nothing sends an episode to the per-transition path.
  for (const std::size_t actions : {6u, 12u}) {
    util::Rng rng(11);
    std::vector<Episode> episodes;
    for (std::size_t n = 1; n <= 40; ++n) {
      episodes.push_back(chain(n % 7, n, actions, rng));
    }
    const QTable warm = distinct_table(64, actions, 5);
    EXPECT_EQ(train_episodes(warm, planner_td(), true, 1e-12, episodes), 0u);
    EXPECT_EQ(train_episodes(warm, planner_td(), true, 0.2, episodes), 0u);
  }
}

TEST(LaneEngine, TrainEpisodeFallsBackAtTheCutoffAge) {
  // 50 greedy transitions through distinct states: the window reaches 40
  // entries, where the oldest would drop, and hands the rest of the episode
  // to the per-transition path, which drops the aged entries from there.
  for (const std::size_t actions : {8u, 12u}) {
    util::Rng rng(13);
    std::vector<Episode> episodes;
    for (int i = 0; i < 4; ++i) episodes.push_back(chain(i, 50, actions, rng));
    const QTable warm = distinct_table(64, actions, 17);
    EXPECT_EQ(train_episodes(warm, planner_td(), true, 1e-12, episodes), 4u);
  }
}

TEST(LaneEngine, LoadStoreRoundTripsBitwise) {
  LaneEngine engine(2, 5, 3, 4, planner_td());
  QTable q(5, 3, 0.0);
  util::Rng rng(9);
  for (StateId s = 0; s < 5; ++s) {
    for (ActionId a = 0; a < 3; ++a) {
      q.set(s, a, (rng.uniform() - 0.5) * 1e6);
    }
  }
  q.set(0, 0, -0.0);  // sign-of-zero must survive the round trip
  engine.load(1, q);
  QTable out(5, 3, 7.0);
  engine.store(1, out);
  for (StateId s = 0; s < 5; ++s) {
    for (ActionId a = 0; a < 3; ++a) {
      EXPECT_EQ(bits(out.get(s, a)), bits(q.get(s, a)));
    }
  }
}

TEST(LaneEngine, RejectsInvalidShapes) {
  EXPECT_THROW(LaneEngine(0, 5, 3, 4), std::invalid_argument);
  EXPECT_THROW(LaneEngine(2, 0, 3, 4), std::invalid_argument);
  EXPECT_THROW(LaneEngine(2, 5, 0, 4), std::invalid_argument);
  EXPECT_THROW(LaneEngine(2, 5, 65, 4), std::invalid_argument);
  EXPECT_NO_THROW(LaneEngine(2, 5, 64, 4));
  LaneEngine engine(2, 5, 3, 4);
  QTable wrong(4, 3, 0.0);
  EXPECT_THROW(engine.load(0, wrong), std::invalid_argument);
  EXPECT_THROW(engine.store(0, wrong), std::invalid_argument);

  // Slots at or past width() are refused before any slab is touched.
  QTable right(5, 3, 0.0);
  EXPECT_THROW(engine.load(2, right), std::out_of_range);
  EXPECT_THROW(engine.store(2, right), std::out_of_range);
  const StateId states[] = {0, 1};
  const std::vector<double> rewards(3, 1.0);
  const double* rows[] = {rewards.data()};
  util::Rng rng(1);
  EXPECT_THROW(engine.train_episode(2, Trajectory{states, rows, 1, false},
                                    0.2, rng, true),
               std::out_of_range);
  EXPECT_NO_THROW(engine.train_episode(1, Trajectory{states, rows, 1, false},
                                       0.2, rng, true));
}

}  // namespace
}  // namespace coreda::rl
