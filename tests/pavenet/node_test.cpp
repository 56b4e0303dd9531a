#include "pavenet/node.hpp"

#include <gtest/gtest.h>

#include "adl/library.hpp"
#include "pavenet/base_station.hpp"
#include "sim/scheduler.hpp"

namespace coreda::pavenet {
namespace {

using sim::Duration;
using sim::TimePoint;

struct NodeFixture : ::testing::Test {
  adl::AdlLibrary library;
  sim::Scheduler scheduler;
  sensors::ManipulationWorld world;
  RadioChannel channel{scheduler, util::Rng(1)};
  std::vector<Packet> uplink;

  NodeFixture() {
    channel.attach_receiver(
        0, [this](const Packet& p) { uplink.push_back(p); });
  }

  PavenetNode make_node(adl::ToolId tool) {
    return PavenetNode(library.tools().at(tool), scheduler, world, channel,
                       util::Rng(7));
  }
};

TEST_F(NodeFixture, IdleNodeStaysSilent) {
  PavenetNode node = make_node(adl::tools::kKettle);
  node.power_on();
  scheduler.run_until(TimePoint::from_seconds(20.0));
  EXPECT_TRUE(uplink.empty());
  EXPECT_EQ(node.announcements(), 0u);
}

TEST_F(NodeFixture, ManipulationTriggersAnnouncement) {
  PavenetNode node = make_node(adl::tools::kKettle);
  node.power_on();
  world.begin(adl::tools::kKettle, TimePoint::from_seconds(2.0),
              Duration::seconds(6.0));
  scheduler.run_until(TimePoint::from_seconds(12.0));
  ASSERT_FALSE(uplink.empty());
  EXPECT_EQ(uplink[0].source_uid, adl::tools::kKettle);
  EXPECT_EQ(uplink[0].kind, Packet::Kind::kToolUsage);
  EXPECT_GE(node.eeprom().size(), 1u);
}

TEST_F(NodeFixture, PowerOffStopsSampling) {
  PavenetNode node = make_node(adl::tools::kKettle);
  node.power_on();
  node.power_off();
  world.begin(adl::tools::kKettle, TimePoint::from_seconds(1.0),
              Duration::seconds(6.0));
  scheduler.run_until(TimePoint::from_seconds(10.0));
  EXPECT_TRUE(uplink.empty());
}

TEST_F(NodeFixture, PowerOnIsIdempotent) {
  PavenetNode node = make_node(adl::tools::kKettle);
  node.power_on();
  node.power_on();  // must not double the tick rate
  world.begin(adl::tools::kKettle, TimePoint::from_seconds(1.0),
              Duration::seconds(3.0));
  scheduler.run_until(TimePoint::from_seconds(6.0));
  // One manipulation: announcements throttled to ~1/second of usage.
  EXPECT_LE(node.announcements(), 4u);
}

TEST_F(NodeFixture, ReannounceThrottled) {
  PavenetNode node = make_node(adl::tools::kToothbrush);
  node.power_on();
  // A long vigorous manipulation: every window votes yes, but announcements
  // are rate-limited to one per reannounce_interval (1 s default).
  world.begin(adl::tools::kToothbrush, TimePoint::from_seconds(1.0),
              Duration::seconds(10.0));
  scheduler.run_until(TimePoint::from_seconds(15.0));
  EXPECT_LE(node.announcements(), 11u);
  EXPECT_GE(node.announcements(), 8u);
}

TEST_F(NodeFixture, DownlinkLedCommandBlinksGreen) {
  PavenetNode node = make_node(adl::tools::kTeaCup);
  node.power_on();
  Packet cmd;
  cmd.kind = Packet::Kind::kLedCommand;
  cmd.dest_uid = adl::tools::kTeaCup;
  cmd.led_color = LedColor::kGreen;
  cmd.blink_count = 3;
  channel.transmit(cmd);
  scheduler.run_until(TimePoint::from_seconds(5.0));
  EXPECT_EQ(node.led().blink_count(LedColor::kGreen), 3u);
}

TEST_F(NodeFixture, DownlinkZeroBlinksTurnsOff) {
  PavenetNode node = make_node(adl::tools::kTeaCup);
  node.power_on();
  node.led().blink(LedColor::kRed, 100);
  Packet cmd;
  cmd.kind = Packet::Kind::kLedCommand;
  cmd.dest_uid = adl::tools::kTeaCup;
  cmd.blink_count = 0;
  channel.transmit(cmd);
  scheduler.run_until(TimePoint::from_seconds(1.0));
  EXPECT_FALSE(node.led().is_on(LedColor::kRed));
}

TEST_F(NodeFixture, UsesRecommendedThresholdByDefault) {
  PavenetNode accel_node = make_node(adl::tools::kKettle);
  EXPECT_DOUBLE_EQ(accel_node.threshold(), 0.30);
  PavenetNode pressure_node = make_node(adl::tools::kElectricPot);
  EXPECT_DOUBLE_EQ(pressure_node.threshold(), 0.25);
}

TEST_F(NodeFixture, ExplicitThresholdOverrides) {
  FirmwareConfig config;
  config.excitation_threshold = 0.77;
  PavenetNode node(library.tools().at(adl::tools::kKettle), scheduler, world,
                   channel, util::Rng(7), config);
  EXPECT_DOUBLE_EQ(node.threshold(), 0.77);
}

TEST(NodeBatchingTest, BatchedSamplingMatchesPerTickBitExactly) {
  // The batched firmware task is a pure scheduling optimization and its
  // hit-only sensor path (SensorModel::sample_hits) a pure arithmetic one:
  // every vote, EEPROM record, and announcement must be identical to the
  // literal per-tick loop over exact samples, including partial windows
  // flushed at power_off — for every sensor kind, through a long idle
  // stretch (hundreds of accidental bumps per accelerometer node; idle
  // votes on the pressure and brightness nodes at the low threshold), and
  // at a threshold low enough that the idle shortcut often has to fall
  // back to exact samples.
  adl::AdlLibrary library;
  std::vector<adl::Tool> tools = library.tools().tools();
  // The catalog has no brightness or temperature tool; add one of each.
  for (auto kind : {adl::SensorKind::kBrightness,
                    adl::SensorKind::kTemperature}) {
    adl::Tool tool = library.tools().at(adl::tools::kKettle);
    tool.id = static_cast<adl::ToolId>(90 + static_cast<int>(kind));
    tool.sensor = kind;
    tool.name += " (" + std::string(adl::to_string(kind)) + ")";
    tools.push_back(tool);
  }
  const Duration idle_stretch = Duration::minutes(30.0);
  struct Observed {
    std::uint64_t samples;
    std::uint64_t announcements;
    std::size_t uplink;
    std::vector<std::pair<std::int64_t, int>> records;
    bool operator==(const Observed&) const = default;
  };
  auto run_one = [&](const adl::Tool& tool, bool batch, double threshold) {
    sim::Scheduler scheduler;
    sensors::ManipulationWorld world;
    RadioChannel channel{scheduler, util::Rng(1)};
    std::size_t uplink = 0;
    channel.attach_receiver(0, [&](const Packet&) { ++uplink; });
    FirmwareConfig config;
    config.batch_sampling = batch;
    config.excitation_threshold = threshold;
    PavenetNode node(tool, scheduler, world, channel, util::Rng(7 + tool.id),
                     config);
    node.power_on();
    // Episodes that start, truncate, and restart mid-window, then a long
    // idle stretch and one more use.
    scheduler.schedule_at(TimePoint::from_seconds(1.23), [&] {
      world.begin(tool.id, scheduler.now(), Duration::seconds(4.0));
    });
    scheduler.schedule_at(TimePoint::from_seconds(3.07), [&] {
      world.end(tool.id, scheduler.now());
    });
    scheduler.schedule_at(TimePoint::from_seconds(3.55), [&] {
      world.begin(tool.id, scheduler.now(), Duration::seconds(5.0));
    });
    const TimePoint resume = TimePoint::from_seconds(10.42) + idle_stretch;
    scheduler.schedule_at(resume, [&] {
      world.begin(tool.id, scheduler.now(), Duration::seconds(3.0));
    });
    scheduler.run_until(resume + Duration::seconds(4.93));  // mid-window
    node.power_off();
    Observed obs{node.samples(), node.announcements(), uplink, {}};
    for (const EepromRecord& r : node.eeprom().dump()) {
      obs.records.emplace_back(r.at.total_micros(), r.hits);
    }
    return obs;
  };
  std::size_t idle_votes = 0;
  for (const adl::Tool& tool : tools) {
    for (double threshold : {-1.0, 0.12}) {  // -1: the model's recommended
      SCOPED_TRACE(tool.name + " threshold " + std::to_string(threshold));
      const Observed per_tick = run_one(tool, false, threshold);
      const Observed batched = run_one(tool, true, threshold);
      // 10.42 s + 30 min + 4.93 s at 10 Hz, flushed to the tick.
      EXPECT_EQ(per_tick.samples, 18153u);
      EXPECT_GT(per_tick.records.size(), 0u);
      EXPECT_TRUE(per_tick == batched);
      for (const auto& [at_us, hits] : per_tick.records) {
        idle_votes += at_us > 10'000'000 &&
                      at_us < 10'420'000 + idle_stretch.total_micros();
      }
    }
  }
  EXPECT_GT(idle_votes, 0u);
}

TEST_F(NodeFixture, UidMatchesTool) {
  PavenetNode node = make_node(adl::tools::kTeaBox);
  EXPECT_EQ(node.uid(), adl::tools::kTeaBox);
  EXPECT_EQ(node.tool().name, "tea box");
}

}  // namespace
}  // namespace coreda::pavenet
