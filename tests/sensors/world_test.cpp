#include "sensors/world.hpp"

#include <gtest/gtest.h>

#include <bit>

namespace coreda::sensors {
namespace {

using sim::Duration;
using sim::TimePoint;

TEST(ManipulationWorldTest, IdleByDefault) {
  ManipulationWorld world;
  EXPECT_EQ(world.activation(5, TimePoint::origin()), 0.0);
  EXPECT_FALSE(world.in_use(5, TimePoint::origin()));
}

TEST(ManipulationWorldTest, ActiveDuringEpisode) {
  ManipulationWorld world;
  world.begin(5, TimePoint::from_seconds(1.0), Duration::seconds(4.0));
  EXPECT_TRUE(world.in_use(5, TimePoint::from_seconds(3.0)));
  EXPECT_GT(world.activation(5, TimePoint::from_seconds(3.0)), 0.0);
  EXPECT_FALSE(world.in_use(5, TimePoint::from_seconds(0.5)));
  EXPECT_FALSE(world.in_use(5, TimePoint::from_seconds(5.5)));
}

TEST(ManipulationWorldTest, OtherToolsUnaffected) {
  ManipulationWorld world;
  world.begin(5, TimePoint::origin(), Duration::seconds(4.0));
  EXPECT_EQ(world.activation(6, TimePoint::from_seconds(2.0)), 0.0);
}

TEST(ManipulationWorldTest, EndTruncatesEpisode) {
  ManipulationWorld world;
  world.begin(5, TimePoint::origin(), Duration::seconds(10.0));
  world.end(5, TimePoint::from_seconds(2.0));
  EXPECT_FALSE(world.in_use(5, TimePoint::from_seconds(3.0)));
  EXPECT_TRUE(world.in_use(5, TimePoint::from_seconds(1.0)));
}

TEST(ManipulationWorldTest, EndOfUnknownToolIsNoop) {
  ManipulationWorld world;
  world.end(99, TimePoint::from_seconds(1.0));  // must not crash
}

TEST(ManipulationWorldTest, RestartSupersedesButKeepsRecentHistory) {
  ManipulationWorld world;
  world.begin(5, TimePoint::origin(), Duration::seconds(2.0));
  world.begin(5, TimePoint::from_seconds(5.0), Duration::seconds(2.0));
  // The superseded episode stays answerable for instants before the
  // successor started (what a live 10 Hz reader saw at the time)...
  EXPECT_TRUE(world.in_use(5, TimePoint::from_seconds(1.0)));
  // ...while the gap between episodes and the new episode read normally.
  EXPECT_FALSE(world.in_use(5, TimePoint::from_seconds(3.0)));
  EXPECT_TRUE(world.in_use(5, TimePoint::from_seconds(6.0)));
}

TEST(ManipulationWorldTest, RestartClipsAnOverlappingPredecessor) {
  ManipulationWorld world;
  world.begin(5, TimePoint::origin(), Duration::seconds(10.0));
  world.begin(5, TimePoint::from_seconds(4.0), Duration::seconds(10.0));
  // From the restart onward only the new episode answers; its envelope
  // restarts from zero progress at t = 4.
  const double at_restart = world.activation(5, TimePoint::from_seconds(4.1));
  const double before = world.activation(5, TimePoint::from_seconds(3.9));
  EXPECT_GT(before, at_restart);
}

TEST(ManipulationWorldTest, HistoryRetentionBoundsEpisodeCount) {
  ManipulationWorld world;
  // Episodes older than kHistoryRetention are pruned on begin().
  world.begin(5, TimePoint::origin(), Duration::seconds(1.0));
  world.begin(5, TimePoint::from_seconds(100.0), Duration::seconds(1.0));
  EXPECT_FALSE(world.in_use(5, TimePoint::from_seconds(0.5)));
}

TEST(ManipulationWorldTest, ActivationBlockMatchesPointQueries) {
  ManipulationWorld world;
  world.begin(5, TimePoint::from_seconds(0.3), Duration::seconds(2.0));
  world.end(5, TimePoint::from_seconds(1.7));
  world.begin(5, TimePoint::from_seconds(2.1), Duration::seconds(3.0));
  const TimePoint first = TimePoint::from_seconds(0.05);
  const Duration step = Duration::millis(100);
  double block[40];
  world.activation_block(5, first, step, 40, block);
  for (std::size_t i = 0; i < 40; ++i) {
    const TimePoint at =
        first + Duration::micros(step.total_micros() *
                                 static_cast<std::int64_t>(i));
    EXPECT_DOUBLE_EQ(block[i], world.activation(5, at)) << "sample " << i;
  }
}

TEST(ManipulationWorldTest, ActivationBlockOfIdleToolIsZero) {
  ManipulationWorld world;
  double block[5] = {1.0, 1.0, 1.0, 1.0, 1.0};
  world.activation_block(7, TimePoint::origin(), Duration::millis(100), 5,
                         block);
  for (double v : block) EXPECT_EQ(v, 0.0);
}

TEST(ManipulationWorldTest, IdleOverImpliesZeroActivationBlock) {
  // Whenever idle_over says no episode touches a span, every activation
  // in it is exactly +0.
  ManipulationWorld world;
  EXPECT_TRUE(world.idle_over(5, TimePoint::origin(),
                              TimePoint::from_seconds(1.0)));
  world.begin(5, TimePoint::from_seconds(1.25), Duration::seconds(2.0));
  world.end(5, TimePoint::from_seconds(2.5));
  world.begin(5, TimePoint::from_seconds(4.05), Duration::seconds(1.0));
  const Duration step = Duration::millis(100);
  std::size_t idle = 0;
  for (int w = 0; w < 80; ++w) {
    const TimePoint first = TimePoint::from_micros(w * 70'000);
    const TimePoint last = first + Duration::millis(900);
    if (!world.idle_over(5, first, last)) continue;
    ++idle;
    double block[10];
    world.activation_block(5, first, step, 10, block);
    for (double a : block) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a), 0u) << "window " << w;
    }
  }
  EXPECT_GT(idle, 10u);
  EXPECT_FALSE(world.idle_over(5, TimePoint::from_seconds(2.4),
                               TimePoint::from_seconds(2.4)));
  EXPECT_TRUE(world.idle_over(5, TimePoint::from_seconds(2.6),
                              TimePoint::from_seconds(4.0)));
}

TEST(ManipulationWorldTest, ActivationFollowsEnvelope) {
  ManipulationWorld world;
  world.begin(5, TimePoint::origin(), Duration::seconds(10.0),
              Duration::seconds(1.0));
  const double early = world.activation(5, TimePoint::from_seconds(0.2));
  const double mid = world.activation(5, TimePoint::from_seconds(2.6));
  EXPECT_LT(early, mid);
}

TEST(ManipulationWorldTest, GarbageCollectDropsPastEpisodes) {
  ManipulationWorld world;
  world.begin(5, TimePoint::origin(), Duration::seconds(1.0));
  world.begin(6, TimePoint::origin(), Duration::seconds(100.0));
  world.garbage_collect(TimePoint::from_seconds(50.0));
  EXPECT_TRUE(world.in_use(6, TimePoint::from_seconds(50.0)));
  EXPECT_FALSE(world.in_use(5, TimePoint::from_seconds(0.5)));
}

}  // namespace
}  // namespace coreda::sensors
