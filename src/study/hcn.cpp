#include "study/hcn.h"

#include "study/ber_probe.h"

namespace hbmrd::study {

HcnResult measure_hcn(bender::ChipSession& chip, const AddressMap& map,
                      const dram::RowAddress& victim,
                      const HcSearchConfig& config) {
  HcnResult result;
  result.victim = victim;

  // One shared probe engine for all ten searches: its memo makes every
  // search resume exactly where the previous one stopped, and its
  // checkpoint ladder carries the accumulated dose across the n = 1..10
  // chain.
  BerProbe probe(chip, map, victim, ber_config_of(config));

  std::uint64_t lower = 1;  // flips(lower - 1) is known to be < n
  for (int n = 1; n <= kHcnFlips; ++n) {
    const auto hc = find_nth_flip(probe, n, lower, config.max_hammer_count);
    if (!hc) break;  // this and all later bitflip counts are out of reach
    result.hc[static_cast<std::size_t>(n - 1)] = *hc;
    lower = *hc;
  }
  return result;
}

}  // namespace hbmrd::study
