// Extension: node energy budget — the WSN concern PAVENET's own
// publication targets ("a hardware and software framework for wireless
// sensor networks", ref [5]) and that any real deployment of CoReDA has
// to answer: how long do the tool nodes last on a battery, and what
// dominates the drain?
//
// We simulate a realistic day (8 assisted ADL sessions spread over 16
// waking hours, the node otherwise idle) and report the energy split and
// the projected lifetime per tool, then sweep the firmware sampling rate —
// the knob the paper fixes at 10 Hz.

#include <cstdio>
#include <string>

#include "core/home.hpp"
#include "pavenet/energy.hpp"
#include "trace/dataset.hpp"
#include "util/table.hpp"

namespace {

using namespace coreda;

/// A simulated day: nodes on, periodic assisted sessions, long idle gaps.
void run_day(core::HomeDeployment& system,
             const patient::PatientProfile& profile, int sessions) {
  for (int i = 0; i < sessions; ++i) {
    // ~2 h of idle home time between activities.
    system.scheduler().run_for(sim::Duration::minutes(110.0));
    system.run_session(profile, sim::Duration::minutes(10.0));
  }
}

}  // namespace

int main() {
  adl::AdlLibrary library;
  const pavenet::EnergyProfile energy_profile;

  std::puts("Extension: PAVENET node energy budget");
  std::puts("(one simulated day: 8 assisted tea-making sessions over ~15 h;"
            "\n battery 6 kJ; datasheet-order per-operation costs)\n");

  core::SystemConfig config;
  config.seed = 77;
  core::HomeDeployment system(library, library.tea_making(), config);
  trace::DatasetBuilder datasets(
      library, patient::PatientProfile::with_severity("R", 0.0), 78);
  system.pretrain(datasets.sensed_training_set(library.tea_making(), 120));

  patient::PatientProfile profile =
      patient::PatientProfile::with_severity("R", 0.5);
  profile.comply_minimal = 1.0;
  profile.comply_specific = 1.0;

  const sim::TimePoint day_start = system.scheduler().now();
  run_day(system, profile, 8);
  const sim::Duration day = system.scheduler().now() - day_start;

  util::TextTable table("Per-node energy after one day");
  table.set_header({"Tool", "Sampling", "Radio", "EEPROM", "LED", "Sleep",
                    "Total (J)", "Lifetime (days)"});
  for (adl::ToolId id : library.tea_making().tools()) {
    const pavenet::PavenetNode& node = system.node(id);
    const pavenet::EnergyReport report =
        estimate_energy(node, day, energy_profile);
    const auto pct = [&report](double j) {
      return util::format_percent(j / report.total_j());
    };
    table.add_row({library.tools().at(id).name, pct(report.sampling_j),
                   pct(report.radio_j), pct(report.eeprom_j),
                   pct(report.led_j), pct(report.sleep_j),
                   util::format_fixed(report.total_j(), 2),
                   util::format_fixed(
                       report.projected_lifetime_days(
                           energy_profile.battery_j, day),
                       0)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("");

  // --- sampling-rate sweep (isolated node, one hour with 6 min of use) --
  util::TextTable sweep("Sampling-rate sweep (kettle node, 1 h with 6 "
                        "one-minute manipulations)");
  sweep.set_header({"Rate (Hz)", "Samples", "Total (J)", "Lifetime (days)",
                    "Detected manipulations"});
  for (std::uint32_t hz : {2u, 5u, 10u, 20u, 50u}) {
    sim::Scheduler scheduler;
    sensors::ManipulationWorld world;
    pavenet::RadioChannel channel(scheduler, util::Rng(5));
    pavenet::BaseStation station(scheduler, channel);
    pavenet::FirmwareConfig firmware;
    firmware.sampling_hz = hz;
    pavenet::PavenetNode node(library.tools().at(adl::tools::kKettle),
                              scheduler, world, channel, util::Rng(6),
                              firmware);
    node.power_on();
    for (int i = 0; i < 6; ++i) {
      // Scheduled at manipulation time: ManipulationWorld keeps one live
      // episode per tool, so writing them all up front would overwrite.
      const auto start = sim::TimePoint::from_seconds(300.0 + i * 500.0);
      scheduler.schedule_at(start, [&world, start] {
        world.begin(adl::tools::kKettle, start,
                    sim::Duration::seconds(60.0));
      });
    }
    scheduler.run_until(sim::TimePoint::from_seconds(3600.0));
    const pavenet::EnergyReport report = estimate_energy(
        node, sim::Duration::seconds(3600.0), energy_profile);
    sweep.add_row(
        {std::to_string(hz), std::to_string(node.samples()),
         util::format_fixed(report.total_j(), 2),
         util::format_fixed(report.projected_lifetime_days(
                                energy_profile.battery_j,
                                sim::Duration::seconds(3600.0)),
                            0),
         std::to_string(station.episodes().size())});
  }
  std::fputs(sweep.render().c_str(), stdout);
  std::puts(
      "\nExpected shape: sampling dominates the budget at the paper's\n"
      "10 Hz duty cycle (the radio only fires during manipulation), so\n"
      "lifetime scales roughly inversely with the sampling rate. Below\n"
      "~5 Hz the vote window outgrows the base station's merge gap and\n"
      "each manipulation fragments into many episodes (the 2 Hz row) —\n"
      "the paper's 10 Hz buys detection margin for short, weak steps\n"
      "while keeping episodes coherent.");
  return 0;
}
