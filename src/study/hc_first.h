// HC_first search (Sec. 4): the minimum double-sided hammer count that
// induces the first bitflip in a victim row. Generalized to HC_nth for the
// Sec. 5 analysis (hammer count to induce the n-th bitflip).
#pragma once

#include <cstdint>
#include <optional>

#include "bender/session.h"
#include "study/address_map.h"
#include "study/ber.h"
#include "study/patterns.h"

namespace hbmrd::study {

struct HcSearchConfig {
  DataPattern pattern = DataPattern::kCheckered0;
  dram::Cycle on_cycles = 0;  // 0 = minimum on-time
  /// Upper search bound; rows with HC_first above it report "no bitflip".
  std::uint64_t max_hammer_count = 1u << 20;  // 1M activations per aggressor
  int init_ring = 8;
};

/// The BER measurement a search probes with: its pattern, on-time and
/// initialization ring (the hammer count is the probe's).
[[nodiscard]] BerConfig ber_config_of(const HcSearchConfig& config);

/// Smallest hammer count that induces at least `n` bitflips, found by
/// exponential bracketing + binary search (the device model is monotone in
/// hammer count, which tests/ verifies as an invariant). Probes run on the
/// checkpointed incremental-dose engine (study/ber_probe.h). std::nullopt
/// when even max_hammer_count does not induce n bitflips.
[[nodiscard]] std::optional<std::uint64_t> find_hc_nth(
    bender::ChipSession& chip, const AddressMap& map,
    const dram::RowAddress& victim, int n, const HcSearchConfig& config);

/// HC_first = HC_nth with n = 1.
[[nodiscard]] inline std::optional<std::uint64_t> find_hc_first(
    bender::ChipSession& chip, const AddressMap& map,
    const dram::RowAddress& victim, const HcSearchConfig& config) {
  return find_hc_nth(chip, map, victim, 1, config);
}

}  // namespace hbmrd::study
