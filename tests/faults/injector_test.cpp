// The fault layer's own contract, before any component is wired to it:
//
//   * plans are data — text round-trips losslessly, parse errors carry
//     line numbers, standard_chaos windows every site to the chaos epochs;
//   * decisions are PURE functions of (plan seed, site name, user, tick):
//     same inputs fire identically in any call order and on any number of
//     sites, different seeds/names/streams decorrelate;
//   * the epoch window arms and disarms sites without touching their
//     streams — a windowed site fires the same schedule inside its window
//     whether or not other epochs were served around it;
//   * the crash seam keeps the legacy hook contract (hook first, then the
//     planned throw), corruption offsets sweep the record, stalls convert
//     to exact nanoseconds, and unattached sites are inert;
//   * the injector log is sorted, counted, and deterministic.

#include "faults/faults.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace coreda::faults {
namespace {

SiteConfig crash_cfg(double rate) {
  SiteConfig cfg;
  cfg.rate = rate;
  return cfg;
}

/// Collects the (user, tick) pairs a freshly-armed site fires on over a
/// users x ticks grid.
std::set<std::pair<std::uint64_t, std::uint64_t>> firing_set(
    const FaultPlan& plan, const std::string& site_name, std::uint64_t users,
    std::uint64_t ticks) {
  Injector injector(plan);
  Site site(site_name);
  injector.attach(site);
  std::set<std::pair<std::uint64_t, std::uint64_t>> fired;
  for (std::uint64_t u = 0; u < users; ++u) {
    for (std::uint64_t t = 0; t < ticks; ++t) {
      if (site.should_inject(u, t)) fired.insert({u, t});
    }
  }
  return fired;
}

TEST(FaultPlan, StandardChaosRoundTripsThroughText) {
  const FaultPlan plan = FaultPlan::standard_chaos(/*seed=*/42,
                                                   /*chaos_epochs=*/5);
  std::stringstream text;
  plan.save(text);
  const FaultPlan back = FaultPlan::parse(text);

  EXPECT_EQ(back.seed, plan.seed);
  ASSERT_EQ(back.sites.size(), plan.sites.size());
  for (const auto& [name, cfg] : plan.sites) {
    ASSERT_TRUE(back.sites.contains(name)) << name;
    const SiteConfig& b = back.sites.at(name);
    EXPECT_DOUBLE_EQ(b.rate, cfg.rate) << name;
    EXPECT_EQ(b.delay_us, cfg.delay_us) << name;
    EXPECT_EQ(b.epoch_begin, cfg.epoch_begin) << name;
    EXPECT_EQ(b.epoch_end, cfg.epoch_end) << name;
    EXPECT_DOUBLE_EQ(b.burst.p_enter, cfg.burst.p_enter) << name;
    EXPECT_DOUBLE_EQ(b.burst.p_exit, cfg.burst.p_exit) << name;
    EXPECT_DOUBLE_EQ(b.burst.loss_in_good, cfg.burst.loss_in_good) << name;
    EXPECT_DOUBLE_EQ(b.burst.loss_in_bad, cfg.burst.loss_in_bad) << name;
  }
}

TEST(FaultPlan, ArbitraryRatesRoundTripThroughTextExactly) {
  // Six significant digits would turn 0.123456789 into 0.123457, and the
  // smallest normal double's six-digit form underflows, so a plan holding
  // it would not parse back at all.
  FaultPlan plan;
  SiteConfig& site = plan.sites["retrain.abort"];
  site.rate = 0.123456789;
  site.burst.p_enter = std::numeric_limits<double>::min();
  site.burst.p_exit = 1.0 / 3.0;
  site.burst.loss_in_good = 1.0;
  site.burst.loss_in_bad = 0.85;
  std::stringstream text;
  plan.save(text);
  FaultPlan back;
  ASSERT_NO_THROW(back = FaultPlan::parse(text)) << text.str();
  const SiteConfig& b = back.sites.at("retrain.abort");
  EXPECT_EQ(b.rate, site.rate);
  EXPECT_EQ(b.burst.p_enter, site.burst.p_enter);
  EXPECT_EQ(b.burst.p_exit, site.burst.p_exit);
  EXPECT_EQ(b.burst.loss_in_good, site.burst.loss_in_good);
  EXPECT_EQ(b.burst.loss_in_bad, site.burst.loss_in_bad);
}

TEST(FaultPlan, StandardChaosWindowsEverySiteToTheChaosEpochs) {
  const FaultPlan plan = FaultPlan::standard_chaos(1, 7);
  EXPECT_FALSE(plan.sites.empty());
  for (const auto& [name, cfg] : plan.sites) {
    EXPECT_EQ(cfg.epoch_begin, 0u) << name;
    EXPECT_EQ(cfg.epoch_end, 7u) << name;
    EXPECT_FALSE(cfg.trivial()) << name;
  }
}

TEST(FaultPlan, ParseRejectsGarbageWithLineNumbers) {
  {
    std::stringstream text("seed = 1\n[site a.b]\nrate = not-a-number\n");
    EXPECT_THROW(FaultPlan::parse(text), std::runtime_error);
  }
  {
    std::stringstream text("seed = 1\n[site a.b]\nbogus_key = 1\n");
    EXPECT_THROW(FaultPlan::parse(text), std::runtime_error);
  }
  {
    std::stringstream text("rate = 0.5\n");  // key outside a [site] block
    EXPECT_THROW(FaultPlan::parse(text), std::runtime_error);
  }
  {
    // The line number of the offending line is part of the message.
    std::stringstream text("seed = 1\n[site a.b]\nrate = x\n");
    try {
      FaultPlan::parse(text);
      FAIL() << "expected parse failure";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
    }
  }
}

TEST(FaultPlan, ParseRefusesSignedCountsAndNonFiniteNumbers) {
  const auto message = [](const std::string& plan) {
    std::stringstream text(plan);
    try {
      FaultPlan::parse(text);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("<no throw>");
  };
  EXPECT_EQ(message("seed = -1\n"),
            "fault plan line 1: expected an unsigned integer, got '-1'");
  EXPECT_EQ(message("seed = 1\n[site a.b]\ndelay_us = -5\n"),
            "fault plan line 3: expected an unsigned integer, got '-5'");
  EXPECT_EQ(message("seed = 1\n[site a.b]\nepoch_end = +9\n"),
            "fault plan line 3: expected an unsigned integer, got '+9'");
  EXPECT_EQ(message("seed = 1\n[site a.b]\nrate = nan\n"),
            "fault plan line 3: expected a finite number, got 'nan'");
  EXPECT_EQ(message("seed = 1\n[site a.b]\np_enter = inf\n"),
            "fault plan line 3: expected a finite number, got 'inf'");
  EXPECT_EQ(message("seed = 1\n[site a.b]\nloss_in_bad = -infinity\n"),
            "fault plan line 3: expected a finite number, got '-infinity'");
}

TEST(FaultPlan, ParseRefusesValuesOutsideItsBounds) {
  const auto message = [](const std::string& plan) {
    std::stringstream text(plan);
    try {
      FaultPlan::parse(text);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("<no throw>");
  };
  EXPECT_EQ(message("seed = 1\n[site a.b]\nrate = 1e308\n"),
            "fault plan line 3: rate must be in [0, 1], got '1e308'");
  EXPECT_EQ(message("seed = 1\n[site a.b]\np_enter = -0.5\n"),
            "fault plan line 3: p_enter must be in [0, 1], got '-0.5'");
  EXPECT_EQ(message("seed = 1\n[site a.b]\np_exit = 1.0000001\n"),
            "fault plan line 3: p_exit must be in [0, 1], got '1.0000001'");
  EXPECT_EQ(message("seed = 1\n[site a.b]\nloss_in_good = 2\n"),
            "fault plan line 3: loss_in_good must be in [0, 1], got '2'");
  EXPECT_EQ(message("seed = 1\n[site a.b]\nloss_in_bad = -1e-300\n"),
            "fault plan line 3: loss_in_bad must be in [0, 1], got "
            "'-1e-300'");
  EXPECT_EQ(message("seed = 1\n[site a.b]\ndelay_us = "
                    "18446744073709551615\n"),
            "fault plan line 3: delay_us must be <= 86400000000, got "
            "'18446744073709551615'");
  // The section is read whole before its window is checked, so the order
  // of the two keys does not matter; the later one's line is named.
  EXPECT_EQ(message("seed = 1\n[site a.b]\nepoch_end = 3\nrate = 0.5\n"
                    "epoch_begin = 4\n[site c.d]\nrate = 0.1\n"),
            "fault plan line 5: epoch_begin 4 is past epoch_end 3");
  EXPECT_EQ(message("[site a.b]\nepoch_begin = 9\nepoch_end = 2\n"),
            "fault plan line 3: epoch_begin 9 is past epoch_end 2");
  // Every bound is inclusive: a one-day stall, certain rates and an empty
  // window parse, and a stall's nanosecond count fits a signed 64-bit one.
  std::stringstream edge(
      "[site a.b]\nrate = 1\np_enter = 0\np_exit = 1\nloss_in_good = 0\n"
      "loss_in_bad = 1\ndelay_us = 86400000000\nepoch_begin = 5\n"
      "epoch_end = 5\n");
  const FaultPlan plan = FaultPlan::parse(edge);
  EXPECT_EQ(plan.sites.at("a.b").delay_us, FaultPlan::kMaxDelayUs);
  static_assert(FaultPlan::kMaxDelayUs <=
                std::numeric_limits<std::int64_t>::max() / 1000);
}

TEST(FaultPlan, ParseDiagnosticsUnchangedByPlanTextExtraction) {
  // The parser now delegates to util/plan_text; these messages predate the
  // extraction and are pinned byte-for-byte (replay scripts grep for them).
  const auto message = [](const std::string& plan) {
    std::stringstream text(plan);
    try {
      FaultPlan::parse(text);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("<no throw>");
  };
  EXPECT_EQ(message("seed = 1\n[site a.b]\nrate = x\n"),
            "fault plan line 3: expected a number, got 'x'");
  EXPECT_EQ(message("seed = 1\n[site a.b]\ndelay_us = 1q\n"),
            "fault plan line 3: trailing junk in '1q'");
  EXPECT_EQ(message("[site a\n"), "fault plan line 1: unterminated section");
  EXPECT_EQ(message("[chunk a]\n"),
            "fault plan line 1: expected [site NAME], got [chunk a]");
  EXPECT_EQ(message("[site ]\n"),
            "fault plan line 1: expected [site NAME], got [site]");
  EXPECT_EQ(message("seed 1\n"),
            "fault plan line 1: expected key = value, got 'seed 1'");
  EXPECT_EQ(message("rate = 0.5\n"),
            "fault plan line 1: unknown top-level key 'rate'");
  EXPECT_EQ(message("seed = 1\n[site a.b]\nbogus = 1\n"),
            "fault plan line 3: unknown site key 'bogus'");
}

TEST(FaultPlan, ParseIgnoresCommentsAndBlankLines) {
  std::stringstream text(
      "# a comment\n"
      "seed = 9\n"
      "\n"
      "[site x.y]\n"
      "  rate = 0.25\n"
      "  delay_us = 40\n");
  const FaultPlan plan = FaultPlan::parse(text);
  EXPECT_EQ(plan.seed, 9u);
  ASSERT_TRUE(plan.sites.contains("x.y"));
  EXPECT_DOUBLE_EQ(plan.sites.at("x.y").rate, 0.25);
  EXPECT_EQ(plan.sites.at("x.y").delay_us, 40u);
}

TEST(Site, DecisionsArePureAndOrderIndependent) {
  FaultPlan plan;
  plan.seed = 77;
  plan.sites["seam"] = crash_cfg(0.2);

  const auto forward = firing_set(plan, "seam", 32, 64);
  EXPECT_FALSE(forward.empty());
  EXPECT_LT(forward.size(), 32u * 64u);

  // Same plan, reversed evaluation order, interleaved with decisions for a
  // second site: the firing set cannot move.
  Injector injector(plan);
  Site site("seam");
  Site other("other.seam");
  injector.attach(site);
  injector.attach(other);
  std::set<std::pair<std::uint64_t, std::uint64_t>> reversed;
  for (std::uint64_t u = 32; u-- > 0;) {
    for (std::uint64_t t = 64; t-- > 0;) {
      other.should_inject(t, u);  // must not perturb `site`'s stream
      if (site.should_inject(u, t)) reversed.insert({u, t});
    }
  }
  EXPECT_EQ(forward, reversed);
}

TEST(Site, StreamsSplitBySeedAndByName) {
  FaultPlan plan;
  plan.seed = 1;
  plan.sites["a"] = crash_cfg(0.3);
  plan.sites["b"] = crash_cfg(0.3);
  FaultPlan reseeded = plan;
  reseeded.seed = 2;

  const auto a1 = firing_set(plan, "a", 16, 64);
  const auto b1 = firing_set(plan, "b", 16, 64);
  const auto a2 = firing_set(reseeded, "a", 16, 64);
  EXPECT_NE(a1, b1);  // same seed, different site names
  EXPECT_NE(a1, a2);  // same site, different plan seeds
  EXPECT_EQ(a1, firing_set(plan, "a", 16, 64));  // and fully reproducible
}

TEST(Site, EpochWindowGatesWithoutShiftingTheSchedule) {
  FaultPlan windowed;
  windowed.seed = 5;
  windowed.sites["seam"] = crash_cfg(0.5);
  windowed.sites["seam"].epoch_begin = 1;
  windowed.sites["seam"].epoch_end = 2;

  Injector injector(windowed);
  Site site("seam");
  injector.attach(site);

  // Epoch 0: before the window — armed but silent.
  EXPECT_TRUE(site.armed());
  for (std::uint64_t t = 0; t < 100; ++t) {
    EXPECT_FALSE(site.should_inject(7, t));
  }
  EXPECT_EQ(site.injections(), 0u);

  // Epoch 1: inside the window the (user, tick) schedule fires.
  injector.advance_epoch();
  std::vector<std::uint64_t> fired_at;
  for (std::uint64_t t = 0; t < 100; ++t) {
    if (site.should_inject(7, t)) fired_at.push_back(t);
  }
  EXPECT_FALSE(fired_at.empty());

  // Epoch 2: past the window — silent again.
  injector.advance_epoch();
  for (std::uint64_t t = 0; t < 100; ++t) {
    EXPECT_FALSE(site.should_inject(7, t));
  }

  // The in-window schedule is the pure always-on schedule: the window only
  // gates, it never re-rolls.
  FaultPlan open_plan = windowed;
  open_plan.sites["seam"].epoch_begin = 0;
  open_plan.sites["seam"].epoch_end = SiteConfig{}.epoch_end;
  Injector open_injector(open_plan);
  Site open_site("seam");
  open_injector.attach(open_site);
  std::vector<std::uint64_t> always_fired;
  for (std::uint64_t t = 0; t < 100; ++t) {
    if (open_site.should_inject(7, t)) always_fired.push_back(t);
  }
  EXPECT_EQ(fired_at, always_fired);
}

TEST(Site, CrashPointRunsHookThenThrowsPlannedCrash) {
  FaultPlan plan;
  plan.seed = 3;
  plan.sites["seam"] = crash_cfg(1.0);  // every evaluation fires
  Injector injector(plan);
  Site site("seam");
  injector.attach(site);

  int hook_calls = 0;
  site.set_hook([&](const std::string& detail) {
    ++hook_calls;
    EXPECT_EQ(detail, "path");
  });
  EXPECT_TRUE(site.has_hook());
  EXPECT_THROW(site.crash_point(0, 0, "path"), InjectedCrash);
  EXPECT_EQ(hook_calls, 1);

  // A throwing hook preserves the legacy pre-publish contract: its
  // exception wins (the planned decision is never reached).
  site.set_hook([](const std::string&) { throw std::logic_error("legacy"); });
  EXPECT_THROW(site.crash_point(0, 1, "path"), std::logic_error);
}

TEST(Site, CorruptOffsetSweepsTheRecord) {
  FaultPlan plan;
  plan.seed = 11;
  plan.sites["seam"] = crash_cfg(1.0);
  Injector injector(plan);
  Site site("seam");
  injector.attach(site);

  constexpr std::size_t kLen = 37;
  std::set<std::size_t> offsets;
  for (std::uint64_t t = 0; t < 200; ++t) {
    const std::size_t off = site.corrupt_offset(/*user=*/1, t, kLen);
    ASSERT_NE(off, Site::kNoCorruption);
    ASSERT_LT(off, kLen);
    offsets.insert(off);
  }
  // The sampled sweep walks the record: 200 draws over 37 offsets must
  // cover most of it (policy_fuzz_test's every-offset sweep, online).
  EXPECT_GT(offsets.size(), kLen / 2);
}

TEST(Site, StallConvertsDelayAndRespectsRate) {
  FaultPlan plan;
  plan.seed = 4;
  plan.sites["always"] = crash_cfg(1.0);
  plan.sites["always"].delay_us = 200;
  plan.sites["never"] = crash_cfg(0.0);
  plan.sites["never"].delay_us = 200;
  // delay_us alone arms the site, but a zero rate means no stall ever fires.
  Injector injector(plan);
  Site always("always");
  Site never("never");
  injector.attach(always);
  injector.attach(never);
  EXPECT_EQ(always.stall_ns(0, 0), 200'000u);
  EXPECT_EQ(never.stall_ns(0, 0), 0u);
}

TEST(Site, UnattachedSiteIsInert) {
  Site site("floating");
  EXPECT_FALSE(site.armed());
  EXPECT_FALSE(site.should_inject(0, 0));
  EXPECT_EQ(site.corrupt_offset(0, 0, 64), Site::kNoCorruption);
  EXPECT_EQ(site.stall_ns(0, 0), 0u);
  int hook_calls = 0;
  site.set_hook([&](const std::string&) { ++hook_calls; });
  site.crash_point(0, 0, "detail");  // hook still runs, nothing throws
  EXPECT_EQ(hook_calls, 1);
}

TEST(Injector, RefusesACodeBuiltPlanOutsideTheParserBounds) {
  // A plan built in code never went through parse(); the injector checks
  // the same bounds, naming the site and the key.
  const auto message = [](const SiteConfig& cfg) {
    FaultPlan plan;
    plan.sites["calm"] = crash_cfg(0.5);
    plan.sites["bad.site"] = cfg;
    try {
      Injector injector(plan);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("<no throw>");
  };
  SiteConfig rate = crash_cfg(1.5);
  EXPECT_EQ(message(rate),
            "fault plan site 'bad.site': rate must be in [0, 1], got '1.5'");
  rate.rate = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(message(rate).rfind("fault plan site 'bad.site': rate must be", 0),
            0u);
  SiteConfig burst;
  burst.burst.loss_in_bad = -0.25;
  EXPECT_EQ(message(burst),
            "fault plan site 'bad.site': loss_in_bad must be in [0, 1], got "
            "'-0.25'");
  SiteConfig stall = crash_cfg(0.5);
  stall.delay_us = 9'300'000'000'000'000ULL;  // past int64 nanoseconds
  EXPECT_EQ(message(stall),
            "fault plan site 'bad.site': delay_us must be <= 86400000000, "
            "got '9300000000000000'");
  SiteConfig window = crash_cfg(0.5);
  window.epoch_begin = 7;
  window.epoch_end = 3;
  EXPECT_EQ(message(window),
            "fault plan site 'bad.site': epoch_begin 7 is past epoch_end 3");
  // The bounds are inclusive, as in parse().
  SiteConfig edge = crash_cfg(1.0);
  edge.delay_us = FaultPlan::kMaxDelayUs;
  edge.burst.p_exit = 0.0;
  edge.epoch_begin = edge.epoch_end = 4;
  EXPECT_EQ(message(edge), "<no throw>");
}

TEST(Injector, AcceptsEveryPlanTheSoaksAndBenchesBuild) {
  EXPECT_NO_THROW(Injector(FaultPlan{}));
  for (const std::uint64_t epochs : {0, 1, 3, 4, 6}) {
    for (const std::uint64_t seed : {1, 7, 42}) {
      EXPECT_NO_THROW(Injector(FaultPlan::standard_chaos(seed, epochs)));
    }
  }
}

TEST(Site, PlanWithoutEntryLeavesSiteDisarmed) {
  FaultPlan plan;
  plan.seed = 8;
  plan.sites["present"] = crash_cfg(0.5);
  Injector injector(plan);
  Site absent("absent");
  injector.attach(absent);
  EXPECT_FALSE(absent.armed());
  EXPECT_FALSE(absent.should_inject(0, 0));
}

TEST(BurstState, ChainsAreDeterministicPerLane) {
  FaultPlan plan;
  plan.seed = 21;
  SiteConfig cfg;
  cfg.burst = BurstConfig{0.1, 0.3, 0.01, 0.9};
  plan.sites["radio"] = cfg;

  const auto drops_for = [&plan](std::uint64_t lane) {
    Injector injector(plan);
    Site site("radio");
    injector.attach(site);
    BurstState chain;
    chain.arm(site, lane);
    std::vector<bool> drops;
    for (int f = 0; f < 500; ++f) drops.push_back(chain.drop_frame());
    return drops;
  };

  const std::vector<bool> lane0 = drops_for(0);
  EXPECT_EQ(lane0, drops_for(0));  // replay is exact
  EXPECT_NE(lane0, drops_for(1));  // lanes decorrelate
  std::size_t dropped = 0;
  for (const bool d : lane0) dropped += d ? 1 : 0;
  EXPECT_GT(dropped, 0u);
  EXPECT_LT(dropped, lane0.size());
}

TEST(Injector, LogIsSortedCountedAndRendered) {
  FaultPlan plan;
  plan.seed = 6;
  plan.sites["b.seam"] = crash_cfg(1.0);
  plan.sites["a.seam"] = crash_cfg(0.0);  // trivial: stays disarmed
  Injector injector(plan);
  Site b("b.seam");
  Site a("a.seam");
  injector.attach(b);
  injector.attach(a);

  for (std::uint64_t t = 0; t < 10; ++t) b.should_inject(0, t);

  const std::vector<Injector::SiteLog> log = injector.log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].name, "a.seam");
  EXPECT_FALSE(log[0].armed);
  EXPECT_EQ(log[1].name, "b.seam");
  EXPECT_TRUE(log[1].armed);
  EXPECT_EQ(log[1].evaluations, 10u);
  EXPECT_EQ(log[1].injections, 10u);

  std::ostringstream out;
  injector.report(out);
  EXPECT_NE(out.str().find("b.seam"), std::string::npos);
  EXPECT_NE(out.str().find("10"), std::string::npos);
}

}  // namespace
}  // namespace coreda::faults
