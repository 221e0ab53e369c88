// Quickstart: open the simulated testbed, reverse engineer the row mapping
// of one chip, double-side hammer a victim row, and print the resulting
// RowHammer bitflips plus the row's HC_first.
#include <iostream>

#include "bender/platform.h"
#include "study/address_map.h"
#include "study/ber.h"
#include "study/hc_first.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace hbmrd;

  const auto cli = util::Cli::parse_or_exit(
      argc, argv,
      {{"--chip", util::FlagKind::kInt, "chip index (default 5)"},
       {"--row", util::FlagKind::kInt, "victim row (default 4500)"}},
      "Quickstart: map one chip, hammer a victim row, print its bitflips "
      "and HC_first");
  const int chip_index = static_cast<int>(cli.get_int("--chip", 5));
  const int victim_row = static_cast<int>(cli.get_int("--row", 4500));

  bender::Platform platform;
  bender::HbmChip& chip = platform.chip(chip_index);
  const dram::BankAddress bank{0, 0, 0};

  std::cout << "Testing " << chip.profile().label << " ("
            << chip.profile().board << ") at " << chip.temperature_c()
            << " C\n";

  // Step 1: recover the vendor's logical->physical row mapping.
  const auto map = study::AddressMap::reverse_engineer(chip, bank);
  std::cout << "Reverse-engineered row mapping: "
            << dram::to_string(map.scheme()) << "\n";

  // Step 2: double-sided RowHammer at a 256K hammer count.
  const dram::RowAddress victim{bank, victim_row};
  study::BerConfig ber_config;
  const auto ber = study::measure_row_ber(chip, map, victim, ber_config);
  std::cout << "Row " << victim_row << ": " << ber.bitflips
            << " bitflips at 256K hammers (BER "
            << 100.0 * ber.ber << "%)\n";

  // Step 3: find the minimum hammer count for the first bitflip.
  study::HcSearchConfig hc_config;
  const auto hc_first = study::find_hc_first(chip, map, victim, hc_config);
  if (hc_first) {
    std::cout << "HC_first = " << *hc_first << " activations per aggressor\n";
  } else {
    std::cout << "No bitflip up to " << hc_config.max_hammer_count
              << " activations\n";
  }
  return 0;
}
