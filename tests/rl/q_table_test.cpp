#include "rl/q_table.hpp"

#include <gtest/gtest.h>

#include <map>

namespace coreda::rl {
namespace {

TEST(QTableTest, InitialValueFillsTable) {
  QTable q(3, 4, 7.5);
  for (StateId s = 0; s < 3; ++s) {
    for (ActionId a = 0; a < 4; ++a) {
      EXPECT_DOUBLE_EQ(q.get(s, a), 7.5);
    }
  }
}

TEST(QTableTest, ZeroDimensionsThrow) {
  EXPECT_THROW(QTable(0, 4), std::invalid_argument);
  EXPECT_THROW(QTable(3, 0), std::invalid_argument);
}

TEST(QTableTest, SetAndAdd) {
  QTable q(2, 2);
  q.set(1, 1, 5.0);
  EXPECT_DOUBLE_EQ(q.get(1, 1), 5.0);
  q.add(1, 1, 2.5);
  EXPECT_DOUBLE_EQ(q.get(1, 1), 7.5);
  EXPECT_DOUBLE_EQ(q.get(0, 0), 0.0);  // others untouched
}

TEST(QTableTest, OutOfRangeThrows) {
  QTable q(2, 2);
  EXPECT_THROW(q.get(2, 0), std::out_of_range);
  EXPECT_THROW(q.get(0, 2), std::out_of_range);
  EXPECT_THROW(q.set(5, 0, 1.0), std::out_of_range);
}

TEST(QTableTest, MaxQAndBestAction) {
  QTable q(1, 3);
  q.set(0, 0, 1.0);
  q.set(0, 1, 5.0);
  q.set(0, 2, 3.0);
  EXPECT_DOUBLE_EQ(q.max_q(0), 5.0);
  EXPECT_EQ(q.best_action(0), 1u);
}

TEST(QTableTest, BestActionDeterministicTieBreak) {
  QTable q(1, 4);
  q.set(0, 1, 9.0);
  q.set(0, 3, 9.0);
  EXPECT_EQ(q.best_action(0), 1u);  // lowest index wins
}

TEST(QTableTest, BestActionRandomTieBreakIsUniform) {
  QTable q(1, 3);  // all zeros: three-way tie
  util::Rng rng(5);
  std::map<ActionId, int> counts;
  for (int i = 0; i < 3000; ++i) ++counts[q.best_action(0, rng)];
  EXPECT_EQ(counts.size(), 3u);
  for (const auto& [a, n] : counts) {
    EXPECT_NEAR(n / 3000.0, 1.0 / 3.0, 0.05);
  }
}

TEST(QTableTest, RandomTieBreakOnlyAmongMaxima) {
  QTable q(1, 3);
  q.set(0, 0, 1.0);
  q.set(0, 2, 1.0);
  util::Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    const ActionId a = q.best_action(0, rng);
    EXPECT_NE(a, 1u);
  }
}

TEST(QTableTest, IsUniquelyGreedy) {
  QTable q(1, 3);
  q.set(0, 1, 2.0);
  EXPECT_TRUE(q.is_uniquely_greedy(0, 1));
  q.set(0, 2, 2.0);
  EXPECT_FALSE(q.is_uniquely_greedy(0, 1));  // tie
  EXPECT_FALSE(q.is_uniquely_greedy(0, 0));  // not even maximal
}

TEST(QTableTest, RowSpan) {
  QTable q(2, 3);
  q.set(1, 2, 4.0);
  const auto row = q.row(1);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_DOUBLE_EQ(row[2], 4.0);
}

TEST(QTableTest, Fill) {
  QTable q(2, 2);
  q.set(0, 0, 9.0);
  q.fill(1.5);
  EXPECT_DOUBLE_EQ(q.get(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(q.get(1, 1), 1.5);
}

}  // namespace
}  // namespace coreda::rl
