#include "study/hc_first.h"

#include <stdexcept>

#include "study/ber_probe.h"

namespace hbmrd::study {

BerConfig ber_config_of(const HcSearchConfig& config) {
  BerConfig ber_config;
  ber_config.pattern = config.pattern;
  ber_config.on_cycles = config.on_cycles;
  ber_config.init_ring = config.init_ring;
  return ber_config;
}

std::optional<std::uint64_t> find_hc_nth(bender::ChipSession& chip,
                                         const AddressMap& map,
                                         const dram::RowAddress& victim,
                                         int n,
                                         const HcSearchConfig& config) {
  if (n < 1) throw std::invalid_argument("find_hc_nth: n must be >= 1");
  BerProbe probe(chip, map, victim, ber_config_of(config));
  return find_nth_flip(probe, n, 1, config.max_hammer_count);
}

}  // namespace hbmrd::study
