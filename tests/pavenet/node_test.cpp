#include "pavenet/node.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>

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

TEST_F(NodeFixture, ZeroSamplingRateThrows) {
  FirmwareConfig config;
  config.sampling_hz = 0;
  EXPECT_THROW(PavenetNode(library.tools().at(adl::tools::kKettle), scheduler,
                           world, channel, util::Rng(7), config),
               std::invalid_argument);
}

TEST_F(NodeFixture, SamplingRateAboveOneMegahertzThrows) {
  // No whole-microsecond sample period below 1 us.
  FirmwareConfig config;
  config.sampling_hz = 1'000'001;
  EXPECT_THROW(PavenetNode(library.tools().at(adl::tools::kKettle), scheduler,
                           world, channel, util::Rng(7), config),
               std::invalid_argument);
  config.sampling_hz = 1'000'000;
  config.vote_window = 3;
  EXPECT_NO_THROW(PavenetNode(library.tools().at(adl::tools::kKettle),
                              scheduler, world, channel, util::Rng(7),
                              config));
}

TEST_F(NodeFixture, BatchedWindowBeyondWorldHistoryThrows) {
  // 200 samples at 10 Hz: a 20 s window, which a wake could not read back
  // from the world's 10 s of episode history.
  FirmwareConfig config;
  config.vote_window = 200;
  EXPECT_THROW(PavenetNode(library.tools().at(adl::tools::kKettle), scheduler,
                           world, channel, util::Rng(7), config),
               std::invalid_argument);
  config.vote_window = 100;  // exactly the retention: still readable
  EXPECT_NO_THROW(PavenetNode(library.tools().at(adl::tools::kKettle),
                              scheduler, world, channel, util::Rng(7),
                              config));
  // The per-tick loop reads the world live and takes any window.
  config.vote_window = 200;
  config.batch_sampling = false;
  PavenetNode node(library.tools().at(adl::tools::kKettle), scheduler, world,
                   channel, util::Rng(7), config);
  node.power_on();
  world.begin(adl::tools::kKettle, TimePoint::from_seconds(1.0),
              Duration::seconds(3.0));
  scheduler.run_until(TimePoint::from_seconds(20.05));
  ASSERT_EQ(node.eeprom().size(), 1u);
  EXPECT_GT(node.eeprom().dump()[0].hits, 20);
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

TEST(NodeBatchingTest, BankMatchesPerTickForEveryMember) {
  // Every library tool plus a brightness and a temperature node in one
  // bank: one wake per window, idle accelerometer windows through the
  // lanes. Against the per-tick loop over the same bank, every member's
  // samples, announcements and EEPROM records, and the uplink frames in
  // arrival order, must be identical — across overlapping episodes, one
  // member powered off mid-use and back on off-phase (it then wakes
  // alone), a 30-minute idle stretch, and a power_off mid-window. The
  // second channel delivers simultaneous frames instead of colliding
  // them and draws a loss per frame, so the frames' order is visible.
  // The lanes settle a window below the vote (at most vote_threshold − 1
  // doubtful samples), so the bank runs at votes of 1, 3 and 10.
  adl::AdlLibrary library;
  std::vector<adl::Tool> tools = library.tools().tools();
  for (auto kind : {adl::SensorKind::kBrightness,
                    adl::SensorKind::kTemperature}) {
    adl::Tool tool = library.tools().at(adl::tools::kKettle);
    tool.id = static_cast<adl::ToolId>(90 + static_cast<int>(kind));
    tool.sensor = kind;
    tools.push_back(tool);
  }
  struct Member {
    std::uint64_t samples;
    std::uint64_t announcements;
    std::vector<std::pair<std::int64_t, int>> records;
    bool operator==(const Member&) const = default;
  };
  struct Observed {
    std::vector<Member> members;
    std::vector<std::tuple<std::uint16_t, std::uint64_t, int>> uplink;
    bool operator==(const Observed&) const = default;
  };
  const Duration idle_stretch = Duration::minutes(30.0);
  auto run = [&](bool batch, double threshold, std::uint32_t votes,
                 RadioChannel::Params radio) {
    sim::Scheduler scheduler;
    sensors::ManipulationWorld world;
    RadioChannel channel{scheduler, util::Rng(1), radio};
    Observed obs;
    channel.attach_receiver(0, [&](const Packet& p) {
      obs.uplink.emplace_back(p.source_uid, p.seq, p.vote_hits);
    });
    FirmwareConfig config;
    config.batch_sampling = batch;
    config.excitation_threshold = threshold;
    config.vote_threshold = votes;
    NodeBank bank(scheduler, world, channel, config);
    PavenetNode* cup = nullptr;
    for (const adl::Tool& tool : tools) {
      PavenetNode& node = bank.add(tool, util::Rng(7 + tool.id));
      if (tool.id == adl::tools::kTeaCup) cup = &node;
    }
    bank.power_on();
    auto use = [&](double at_s, adl::ToolId tool, double seconds) {
      scheduler.schedule_at(TimePoint::from_seconds(at_s), [&, tool, seconds] {
        world.begin(tool, scheduler.now(), Duration::seconds(seconds));
      });
    };
    use(1.23, adl::tools::kKettle, 4.0);
    use(2.5, adl::tools::kTeaCup, 6.0);
    use(3.55, adl::tools::kElectricPot, 2.5);
    use(4.4, adl::tools::kToothbrush, 3.0);
    use(5.05, adl::tools::kKettle, 2.0);  // supersedes the first use
    use(6.9, 90 + static_cast<int>(adl::SensorKind::kBrightness), 2.0);
    scheduler.schedule_at(TimePoint::from_seconds(6.37),
                          [cup] { cup->power_off(); });
    scheduler.schedule_at(TimePoint::from_seconds(9.71),
                          [cup] { cup->power_on(); });
    const double resume_s = 14.42 + idle_stretch.to_seconds();
    use(resume_s, adl::tools::kTeaCup, 3.0);
    use(resume_s + 0.35, adl::tools::kSoap, 2.0);
    scheduler.run_until(TimePoint::from_seconds(resume_s + 4.93));
    bank.power_off();  // mid-window
    for (const auto& node : bank.nodes()) {
      Member m{node->samples(), node->announcements(), {}};
      for (const EepromRecord& r : node->eeprom().dump()) {
        m.records.emplace_back(r.at.total_micros(), r.hits);
      }
      obs.members.push_back(std::move(m));
    }
    return obs;
  };
  RadioChannel::Params lossy;
  lossy.loss_probability = 0.1;
  lossy.model_collisions = false;
  for (std::uint32_t votes : {1u, 3u, 10u}) {
    for (const RadioChannel::Params& radio :
         {RadioChannel::Params{}, lossy}) {
      for (double threshold : {-1.0, 0.12}) {  // -1: each model's own
        SCOPED_TRACE("votes " + std::to_string(votes) + " threshold " +
                     std::to_string(threshold) + " loss " +
                     std::to_string(radio.loss_probability));
        const Observed per_tick = run(false, threshold, votes, radio);
        const Observed banked = run(true, threshold, votes, radio);
        ASSERT_EQ(per_tick.members.size(), tools.size());
        // Only a window of ten hits passes a 10-of-10 vote.
        EXPECT_GE(per_tick.uplink.size(), votes == 10 ? 1u : 5u);
        for (std::size_t i = 0; i < tools.size(); ++i) {
          SCOPED_TRACE(tools[i].name);
          EXPECT_TRUE(per_tick.members[i] == banked.members[i]);
        }
        EXPECT_TRUE(per_tick.uplink == banked.uplink);
      }
    }
  }
}

TEST_F(NodeFixture, UidMatchesTool) {
  PavenetNode node = make_node(adl::tools::kTeaBox);
  EXPECT_EQ(node.uid(), adl::tools::kTeaBox);
  EXPECT_EQ(node.tool().name, "tea box");
}

}  // namespace
}  // namespace coreda::pavenet
