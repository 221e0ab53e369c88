// Calibration profiles of the six tested HBM2 chips (paper Table 3).
//
// Each profile fixes the chip's deterministic "silicon lottery": the fault
// model seed, the per-chip vulnerability factor, the die-to-die spread, the
// vendor row mapping scheme, whether the chip carries the undocumented TRR
// mechanism (demonstrated on Chip 0, Sec. 7), and its thermal setup
// (Chip 0 is temperature-controlled at 82 C; Fig. 3).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "disturb/params.h"
#include "dram/mapping.h"

namespace hbmrd::dram {

inline constexpr std::uint64_t kDefaultPlatformSeed = 0x48424d3244534eull;
inline constexpr int kChipCount = 6;

struct ChipProfile {
  int index = 0;
  std::string label;  // "Chip 0" .. "Chip 5"
  std::string board;  // FPGA board carrying the chip (Table 3)
  MappingScheme mapping = MappingScheme::kIdentity;
  /// Only Chip 0 is shown to implement the proprietary TRR (Sec. 7).
  bool has_undocumented_trr = false;
  bool temperature_controlled = false;
  double target_temperature_c = 82.0;   // if controlled
  double ambient_temperature_c = 55.0;  // if not controlled
  disturb::DisturbParams disturb;

  /// The calibrated test temperature: the controlled target or ambient.
  [[nodiscard]] double setpoint_c() const {
    return temperature_controlled ? target_temperature_c
                                  : ambient_temperature_c;
  }
  /// Half-width of the band around setpoint_c() a trial may start in:
  /// 1 C for temperature-controlled chips (paper Sec. 3), 3 C for ambient
  /// chips (diurnal drift + sensor noise).
  [[nodiscard]] double guard_band_c() const {
    return temperature_controlled ? 1.0 : 3.0;
  }
};

/// The six chip profiles, derived deterministically from the platform seed.
[[nodiscard]] std::array<ChipProfile, kChipCount> chip_profiles(
    std::uint64_t platform_seed = kDefaultPlatformSeed);

}  // namespace hbmrd::dram
