#include "study/wcdp.h"

#include "study/ber.h"

namespace hbmrd::study {

WcdpResult select_row_wcdp(bender::ChipSession& chip, const AddressMap& map,
                           const dram::RowAddress& victim,
                           const HcSearchConfig& base) {
  WcdpResult result;
  std::array<std::uint64_t, 4> hc_for_rule{};
  for (std::size_t i = 0; i < kAllPatterns.size(); ++i) {
    HcSearchConfig config = base;
    config.pattern = kAllPatterns[i];
    result.hc_first[i] = find_hc_first(chip, map, victim, config);
    hc_for_rule[i] = result.hc_first[i].value_or(0);

    BerConfig ber_config = ber_config_of(config);
    ber_config.hammer_count = 256 * 1024;
    result.ber_at_256k[i] =
        measure_row_ber(chip, map, victim, ber_config).ber;
  }
  result.wcdp = select_wcdp(hc_for_rule, result.ber_at_256k);
  return result;
}

}  // namespace hbmrd::study
