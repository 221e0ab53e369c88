// RowHammer bit error rate (BER) measurement (Sec. 4): the fraction of a
// victim row's 8192 cells that flip under a double-sided hammer of a given
// hammer count, data pattern, and aggressor on-time.
#pragma once

#include <cstdint>
#include <vector>

#include "bender/session.h"
#include "study/address_map.h"
#include "study/patterns.h"

namespace hbmrd::study {

struct BerConfig {
  DataPattern pattern = DataPattern::kCheckered0;
  /// Activations per aggressor row (Sec. 3.1: hammer count 1000 means each
  /// of the two aggressors is activated 1000 times).
  std::uint64_t hammer_count = 256 * 1024;
  /// Aggressor row on-time; 0 = minimum (tRAS-limited ~30 ns).
  dram::Cycle on_cycles = 0;
  /// How far out the victim-side initialization extends (Table 1 uses
  /// V +- [2:8]; only +-2 interacts in this model, the rest is fidelity).
  int init_ring = 8;
};

struct RowBerResult {
  dram::RowAddress victim;
  int bitflips = 0;
  double ber = 0.0;  // bitflips / kRowBits
  /// Bit positions that flipped (for the word-level analysis of Fig. 15).
  std::vector<int> flipped_bits;
};

/// Measures BER on one victim row (logical address).
[[nodiscard]] RowBerResult measure_row_ber(bender::ChipSession& chip,
                                           const AddressMap& map,
                                           const dram::RowAddress& victim,
                                           const BerConfig& config);

/// Appends the Table 1 initialization prefix (victim, aggressors, ring
/// writes) of the BER program. Shared between the one-shot measurement
/// above and the resumable probe engine (study/ber_probe.h) so both issue
/// command-identical initializations.
void append_ber_init(bender::ProgramBuilder& builder, const AddressMap& map,
                     const dram::RowAddress& victim, const BerConfig& config);

/// Assembles a RowBerResult from a victim readback.
[[nodiscard]] RowBerResult make_row_ber_result(const dram::RowAddress& victim,
                                               const dram::RowBits& read_back,
                                               const BerConfig& config);

}  // namespace hbmrd::study
