#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace coreda::sim {
namespace {

TEST(SchedulerTest, StartsAtOrigin) {
  Scheduler s;
  EXPECT_EQ(s.now(), TimePoint::origin());
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerTest, FiresInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(TimePoint::from_seconds(2.0), [&] { order.push_back(2); });
  s.schedule_at(TimePoint::from_seconds(1.0), [&] { order.push_back(1); });
  s.schedule_at(TimePoint::from_seconds(3.0), [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now().to_seconds(), 3.0);
}

TEST(SchedulerTest, EqualTimesFireInInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  const TimePoint t = TimePoint::from_seconds(1.0);
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(t, [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SchedulerTest, ScheduleAfterUsesCurrentTime) {
  Scheduler s;
  double fired_at = -1.0;
  s.schedule_after(Duration::seconds(1.0), [&] {
    s.schedule_after(Duration::seconds(2.0),
                     [&] { fired_at = s.now().to_seconds(); });
  });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 3.0);
}

TEST(SchedulerTest, SchedulingInPastThrows) {
  Scheduler s;
  s.schedule_at(TimePoint::from_seconds(5.0), [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(TimePoint::from_seconds(1.0), [] {}),
               std::invalid_argument);
}

TEST(SchedulerTest, CancelPreventsFiring) {
  Scheduler s;
  bool fired = false;
  EventHandle h = s.schedule_after(Duration::seconds(1.0),
                                   [&] { fired = true; });
  h.cancel();
  s.run();
  EXPECT_FALSE(fired);
}

TEST(SchedulerTest, CancelAfterFiringIsSafe) {
  Scheduler s;
  EventHandle h = s.schedule_after(Duration::seconds(1.0), [] {});
  s.run();
  h.cancel();  // no-op
  EXPECT_TRUE(h.cancelled());
}

TEST(SchedulerTest, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.valid());
  h.cancel();  // no crash
}

TEST(SchedulerTest, RunLimitStopsEarly) {
  Scheduler s;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    s.schedule_after(Duration::seconds(i + 1.0), [&] { ++fired; });
  }
  EXPECT_EQ(s.run(3), 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(s.pending(), 7u);
}

TEST(SchedulerTest, RunUntilAdvancesClockToDeadline) {
  Scheduler s;
  int fired = 0;
  s.schedule_after(Duration::seconds(1.0), [&] { ++fired; });
  s.schedule_after(Duration::seconds(10.0), [&] { ++fired; });
  s.run_until(TimePoint::from_seconds(5.0));
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(s.now().to_seconds(), 5.0);
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(SchedulerTest, RunUntilFiresEventAtExactDeadline) {
  Scheduler s;
  bool fired = false;
  s.schedule_at(TimePoint::from_seconds(2.0), [&] { fired = true; });
  s.run_until(TimePoint::from_seconds(2.0));
  EXPECT_TRUE(fired);
}

TEST(SchedulerTest, PeriodicFiresRepeatedly) {
  Scheduler s;
  int count = 0;
  EventHandle h = s.schedule_periodic(Duration::seconds(1.0), [&] { ++count; });
  s.run_until(TimePoint::from_seconds(5.5));
  EXPECT_EQ(count, 5);
  h.cancel();
  s.run_until(TimePoint::from_seconds(20.0));
  EXPECT_EQ(count, 5);
}

TEST(SchedulerTest, PeriodicCancelFromInsideCallback) {
  Scheduler s;
  int count = 0;
  EventHandle h;
  h = s.schedule_periodic(Duration::seconds(1.0), [&] {
    if (++count == 3) h.cancel();
  });
  s.run_until(TimePoint::from_seconds(30.0));
  EXPECT_EQ(count, 3);
}

TEST(SchedulerTest, PeriodicRejectsNonPositivePeriod) {
  Scheduler s;
  EXPECT_THROW(s.schedule_periodic(Duration(), [] {}),
               std::invalid_argument);
}

TEST(SchedulerTest, EventsScheduledDuringRunAreHonored) {
  Scheduler s;
  std::vector<double> fire_times;
  s.schedule_after(Duration::seconds(1.0), [&] {
    fire_times.push_back(s.now().to_seconds());
    s.schedule_after(Duration::seconds(1.0), [&] {
      fire_times.push_back(s.now().to_seconds());
    });
  });
  s.run();
  ASSERT_EQ(fire_times.size(), 2u);
  EXPECT_DOUBLE_EQ(fire_times[1], 2.0);
}

TEST(SchedulerTest, PeriodicCallbackThrowPropagatesAndCancelsSeries) {
  Scheduler s;
  int count = 0;
  EventHandle h = s.schedule_periodic(Duration::seconds(1.0), [&] {
    if (++count == 2) throw std::runtime_error("firmware fault");
  });
  EXPECT_THROW(s.run_until(TimePoint::from_seconds(10.0)),
               std::runtime_error);
  EXPECT_EQ(count, 2);
  // The series is dead and observably so — not a silent stall.
  EXPECT_TRUE(h.cancelled());
  s.run_until(TimePoint::from_seconds(30.0));
  EXPECT_EQ(count, 2);
}

TEST(SchedulerTest, OneShotThrowPropagatesAndSpendsEvent) {
  Scheduler s;
  EventHandle h = s.schedule_after(Duration::seconds(1.0),
                                   [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(s.run(), std::runtime_error);
  EXPECT_TRUE(h.cancelled());
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerTest, StaleHandleCancelDoesNotTouchRecycledSlot) {
  Scheduler s;
  bool first = false;
  bool second = false;
  EventHandle h1 = s.schedule_after(Duration::seconds(1.0),
                                    [&] { first = true; });
  s.run();
  // h1's event fired; its internal slot is free for reuse.
  EventHandle h2 = s.schedule_after(Duration::seconds(1.0),
                                    [&] { second = true; });
  h1.cancel();  // stale: must not cancel the recycled slot's new event
  EXPECT_FALSE(h2.cancelled());
  s.run();
  EXPECT_TRUE(first);
  EXPECT_TRUE(second);
  EXPECT_TRUE(h1.cancelled());
}

TEST(SchedulerTest, CancelledPendingEventsAreReapedWithoutFiring) {
  Scheduler s;
  int fired = 0;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(
        s.schedule_after(Duration::seconds(i + 1.0), [&] { ++fired; }));
  }
  for (int i = 0; i < 100; i += 2) handles[i].cancel();
  EXPECT_EQ(s.run(), 50u);
  EXPECT_EQ(fired, 50);
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerTest, HandleCopiesShareCancellation) {
  Scheduler s;
  bool fired = false;
  EventHandle a = s.schedule_after(Duration::seconds(1.0),
                                   [&] { fired = true; });
  EventHandle b = a;
  b.cancel();
  EXPECT_TRUE(a.cancelled());
  s.run();
  EXPECT_FALSE(fired);
}

TEST(SchedulerTest, PeriodicSlotReuseSurvivesManyPeriods) {
  // The periodic fast path must reuse its slot and callback across
  // thousands of periods without drift in timing or order.
  Scheduler s;
  std::uint64_t count = 0;
  s.schedule_periodic(Duration::millis(100), [&] { ++count; });
  s.run_until(TimePoint::from_seconds(1000.0));
  EXPECT_EQ(count, 10000u);
  EXPECT_DOUBLE_EQ(s.now().to_seconds(), 1000.0);
}

TEST(SchedulerTest, ManyPeriodicTasksStayDeterministic) {
  // Two schedulers with identical task sets must produce identical
  // interleavings — the property all experiments rely on.
  auto run_one = [] {
    Scheduler s;
    std::vector<int> order;
    for (int i = 0; i < 4; ++i) {
      s.schedule_periodic(Duration::millis(100),
                          [&order, i] { order.push_back(i); });
    }
    s.run_until(TimePoint::from_seconds(1.0));
    return order;
  };
  EXPECT_EQ(run_one(), run_one());
}

}  // namespace
}  // namespace coreda::sim
