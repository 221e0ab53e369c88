#include "study/hc_first.h"

#include <stdexcept>

#include "study/ber.h"
#include "study/ber_probe.h"

namespace hbmrd::study {

namespace {

BerConfig ber_config_of(const HcSearchConfig& config,
                        std::uint64_t hammer_count) {
  BerConfig ber_config;
  ber_config.pattern = config.pattern;
  ber_config.hammer_count = hammer_count;
  ber_config.on_cycles = config.on_cycles;
  ber_config.init_ring = config.init_ring;
  return ber_config;
}

}  // namespace

int bitflips_at(bender::ChipSession& chip, const AddressMap& map,
                const dram::RowAddress& victim, std::uint64_t hammer_count,
                const HcSearchConfig& config) {
  return measure_row_ber(chip, map, victim, ber_config_of(config, hammer_count))
      .bitflips;
}

std::optional<std::uint64_t> find_hc_nth(bender::ChipSession& chip,
                                         const AddressMap& map,
                                         const dram::RowAddress& victim,
                                         int n,
                                         const HcSearchConfig& config) {
  if (n < 1) throw std::invalid_argument("find_hc_nth: n must be >= 1");
  BerProbe probe(chip, map, victim, ber_config_of(config, 0));
  return find_nth_flip(probe, n, 1, config.max_hammer_count);
}

}  // namespace hbmrd::study
