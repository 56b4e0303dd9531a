#include "support/traces.hpp"

#include <gtest/gtest.h>

namespace coreda::rl {
namespace {

TEST(TracesTest, EmptyByDefault) {
  EligibilityTraces traces(8, 8);
  EXPECT_EQ(traces.active_count(), 0u);
  EXPECT_EQ(traces.get(1, 2), 0.0);
}

TEST(TracesTest, ReplacingVisitSetsOne) {
  EligibilityTraces traces(8, 8, TraceType::kReplacing);
  traces.visit(1, 2);
  traces.visit(1, 2);
  EXPECT_DOUBLE_EQ(traces.get(1, 2), 1.0);
}

TEST(TracesTest, AccumulatingVisitSums) {
  EligibilityTraces traces(8, 8, TraceType::kAccumulating);
  traces.visit(1, 2);
  traces.visit(1, 2);
  EXPECT_DOUBLE_EQ(traces.get(1, 2), 2.0);
}

TEST(TracesTest, DecayMultiplies) {
  EligibilityTraces traces(8, 8);
  traces.visit(1, 2);
  traces.decay(0.5);
  EXPECT_DOUBLE_EQ(traces.get(1, 2), 0.5);
  traces.decay(0.5);
  EXPECT_DOUBLE_EQ(traces.get(1, 2), 0.25);
}

TEST(TracesTest, DecayDropsTinyEntries) {
  EligibilityTraces traces(8, 8, TraceType::kReplacing, /*cutoff=*/0.1);
  traces.visit(1, 2);
  traces.decay(0.05);  // 0.05 < cutoff
  EXPECT_EQ(traces.active_count(), 0u);
  EXPECT_EQ(traces.get(1, 2), 0.0);
}

TEST(TracesTest, ClearRemovesAll) {
  EligibilityTraces traces(8, 8);
  traces.visit(1, 2);
  traces.visit(3, 4);
  traces.clear();
  EXPECT_EQ(traces.active_count(), 0u);
  EXPECT_EQ(traces.get(1, 2), 0.0);
  EXPECT_EQ(traces.get(3, 4), 0.0);
}

TEST(TracesTest, ClearStateActionsKeepsChosen) {
  EligibilityTraces traces(8, 8);
  traces.visit(1, 0);
  traces.visit(1, 1);
  traces.visit(2, 0);
  traces.clear_state_actions(1, 1);
  EXPECT_EQ(traces.get(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(traces.get(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(traces.get(2, 0), 1.0);  // other state untouched
}

TEST(TracesTest, ClearStateActionsOnEmptyStateIsNoop) {
  EligibilityTraces traces(8, 8);
  traces.visit(2, 0);
  traces.clear_state_actions(1, 1);
  EXPECT_EQ(traces.active_count(), 1u);
  EXPECT_DOUBLE_EQ(traces.get(2, 0), 1.0);
}

TEST(TracesTest, ForEachVisitsAllEntries) {
  EligibilityTraces traces(8, 8);
  traces.visit(1, 2);
  traces.visit(3, 4);
  double sum = 0.0;
  int count = 0;
  traces.for_each([&](StateId, ActionId, double e) {
    sum += e;
    ++count;
  });
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(sum, 2.0);
}

TEST(TracesTest, EntriesSnapshot) {
  EligibilityTraces traces(8, 8);
  traces.visit(7, 3);
  const auto entries = traces.entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].state, 7u);
  EXPECT_EQ(entries[0].action, 3u);
  EXPECT_DOUBLE_EQ(entries[0].value, 1.0);
}

TEST(TracesTest, OutOfRangeAccessThrows) {
  EligibilityTraces traces(4, 2);
  EXPECT_THROW(traces.visit(4, 0), std::out_of_range);
  EXPECT_THROW(traces.visit(0, 2), std::out_of_range);
  EXPECT_THROW(traces.get(4, 0), std::out_of_range);
  EXPECT_THROW(traces.clear_state_actions(4, 0), std::out_of_range);
}

TEST(TracesTest, NegativeCutoffThrows) {
  EXPECT_THROW(EligibilityTraces(8, 8, TraceType::kReplacing, -1.0),
               std::invalid_argument);
}

TEST(TracesTest, ZeroDimensionsThrow) {
  EXPECT_THROW(EligibilityTraces(0, 8), std::invalid_argument);
  EXPECT_THROW(EligibilityTraces(8, 0), std::invalid_argument);
}

// --- Regression: replacing vs accumulating semantics across orderings -----
// The dense rewrite must reproduce the sparse-map behaviour exactly for
// every interleaving of visit / decay / cutoff-compaction / clear. These
// pin the arithmetic, not just the shapes.

TEST(TracesTest, ReplacingVisitAfterDecayResetsToOne) {
  EligibilityTraces traces(8, 8, TraceType::kReplacing);
  traces.visit(1, 2);
  traces.decay(0.5);
  traces.visit(1, 2);  // replace: back to exactly 1, not 1.5
  EXPECT_DOUBLE_EQ(traces.get(1, 2), 1.0);
  EXPECT_EQ(traces.active_count(), 1u);
}

TEST(TracesTest, AccumulatingVisitAfterDecayAddsOne) {
  EligibilityTraces traces(8, 8, TraceType::kAccumulating);
  traces.visit(1, 2);
  traces.decay(0.5);
  traces.visit(1, 2);  // accumulate: 0.5 + 1
  EXPECT_DOUBLE_EQ(traces.get(1, 2), 1.5);
}

TEST(TracesTest, RevisitAfterCutoffDropStartsFresh) {
  // Once compaction dropped an entry, a revisit must behave like a first
  // visit under BOTH trace types (the accumulating sum restarts at 1).
  for (const TraceType type :
       {TraceType::kReplacing, TraceType::kAccumulating}) {
    EligibilityTraces traces(8, 8, type, /*cutoff=*/0.1);
    traces.visit(1, 2);
    traces.decay(0.01);  // dropped
    ASSERT_EQ(traces.active_count(), 0u);
    traces.visit(1, 2);
    EXPECT_DOUBLE_EQ(traces.get(1, 2), 1.0);
    EXPECT_EQ(traces.active_count(), 1u);
  }
}

TEST(TracesTest, ClearStateActionsThenVisitMatchesSinghSutton) {
  // The replacing-trace update order used by the learners: clear the other
  // actions of s, then visit (s, a). The kept action's trace must survive
  // the clear and then be *replaced*, not accumulated.
  EligibilityTraces traces(4, 3, TraceType::kReplacing);
  traces.visit(1, 0);
  traces.visit(1, 1);
  traces.decay(0.8);
  traces.clear_state_actions(1, 1);
  traces.visit(1, 1);
  EXPECT_EQ(traces.get(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(traces.get(1, 1), 1.0);
  EXPECT_EQ(traces.active_count(), 1u);
}

TEST(TracesTest, DecayCompactionKeepsSurvivorsIntact) {
  // Mixed-magnitude actives: compaction of the small ones must not disturb
  // the surviving values or lose entries during the swap-pop walk.
  EligibilityTraces traces(16, 4, TraceType::kAccumulating, /*cutoff=*/0.1);
  for (StateId s = 0; s < 8; ++s) traces.visit(s, s % 4);
  // Make entries at even states large (two visits), odd states small.
  for (StateId s = 0; s < 8; s += 2) traces.visit(s, s % 4);
  traces.decay(0.09);  // odd entries: 0.09 < cutoff; even: 0.18 survives
  EXPECT_EQ(traces.active_count(), 4u);
  for (StateId s = 0; s < 8; ++s) {
    if (s % 2 == 0) {
      EXPECT_DOUBLE_EQ(traces.get(s, s % 4), 2.0 * 0.09) << "state " << s;
    } else {
      EXPECT_EQ(traces.get(s, s % 4), 0.0) << "state " << s;
    }
  }
}

TEST(TracesTest, DecayVisitDecayOrderingIsExact) {
  // Full interleaving across both types: visit a, decay, visit b, decay,
  // revisit a. Every intermediate value is pinned.
  EligibilityTraces rep(4, 2, TraceType::kReplacing);
  EligibilityTraces acc(4, 2, TraceType::kAccumulating);
  for (EligibilityTraces* t : {&rep, &acc}) {
    t->visit(0, 0);
    t->decay(0.5);
    t->visit(1, 1);
    t->decay(0.5);
  }
  // Both types agree until a revisit happens.
  EXPECT_DOUBLE_EQ(rep.get(0, 0), 0.25);
  EXPECT_DOUBLE_EQ(acc.get(0, 0), 0.25);
  EXPECT_DOUBLE_EQ(rep.get(1, 1), 0.5);
  EXPECT_DOUBLE_EQ(acc.get(1, 1), 0.5);
  rep.visit(0, 0);
  acc.visit(0, 0);
  EXPECT_DOUBLE_EQ(rep.get(0, 0), 1.0);   // replaced
  EXPECT_DOUBLE_EQ(acc.get(0, 0), 1.25);  // accumulated
}

}  // namespace
}  // namespace coreda::rl
