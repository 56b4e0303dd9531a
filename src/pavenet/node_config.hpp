#pragma once

#include <cstdint>
#include <string_view>

#include "sim/time.hpp"

namespace coreda::pavenet {

/// Hardware description of a PAVENET module (paper Table 1). We carry it as
/// data both for documentation (bench headers print it) and because a few
/// values — EEPROM size, sampling rate — parameterize the simulation.
struct HardwareSpec {
  std::string_view cpu = "Microchip PIC18LF4620";
  std::uint32_t ram_bytes = 4 * 1024;
  std::uint32_t rom_bytes = 64 * 1024;
  std::string_view wireless = "ChipCon CC1000";
  std::string_view io = "UART, GPIO, I2C";
  std::string_view peripherals =
      "Four LEDs, Real Time Clock, External EEPROM (16 KB)";
  std::string_view sensors =
      "3-axis accelerometer, Pressure, Brightness, Temperature, Motion";
  std::uint32_t eeprom_bytes = 16 * 1024;
};

inline constexpr HardwareSpec kPavenetHardware{};

/// Firmware parameters of the sensing subsystem (paper §2.1).
struct FirmwareConfig {
  /// "The sampling rate of each sensor is 10 times in one second." Must be
  /// in [1, 1'000'000]: the sample period is a whole number of
  /// microseconds (PavenetNode throws std::invalid_argument otherwise).
  std::uint32_t sampling_hz = 10;

  /// "If three of these 10 samples surpass a pre-defined threshold, the tool
  /// will be considered is using" — the vote that rejects accidental bumps.
  std::uint32_t vote_window = 10;
  std::uint32_t vote_threshold = 3;

  /// Excitation threshold; when <= 0 the node uses its sensor model's
  /// recommended_threshold().
  double excitation_threshold = -1.0;

  /// While a tool stays in use, re-announce its ID at most once per this
  /// interval (the server only needs edges, not a packet flood).
  sim::Duration reannounce_interval = sim::Duration::seconds(1.0);

  /// When true the firmware task wakes once per vote window instead of once
  /// per sample and synthesizes the window's samples retroactively — a pure
  /// scheduling optimization that is bit-identical to per-tick sampling
  /// because the tumbling detector only acts at window boundaries (see
  /// DESIGN.md §5). The nodes of a NodeBank then share one wake per
  /// window. The window (vote_window / sampling_hz) must fit in
  /// sensors::ManipulationWorld::kHistoryRetention, which a wake reads
  /// back; PavenetNode throws std::invalid_argument otherwise. Set false
  /// to force the literal per-tick loop, the reference, which takes any
  /// window.
  bool batch_sampling = true;
};

}  // namespace coreda::pavenet
