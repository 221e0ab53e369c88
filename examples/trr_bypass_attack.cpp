// End-to-end TRR-bypass attack (Sec. 7) against Chip 0 with periodic
// refresh fully obeyed: a naive double-sided hammer is neutralized by the
// undocumented TRR, the dummy-row pattern defeats it.
#include <iostream>

#include "bender/platform.h"
#include "study/bypass.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

using namespace hbmrd;

/// Naive double-sided attack under periodic refresh: the full activation
/// budget goes to the two aggressors. The TRR's recency sampler holds them
/// at every TRR-capable REF, so their victim is preventively refreshed.
int naive_attack(bender::HbmChip& chip, const study::AddressMap& map,
                 const dram::RowAddress& victim, std::uint64_t windows) {
  const auto& timing = chip.stack().timing();
  const auto aggressors = map.aggressors_of(victim.row);
  const auto victim_bits = study::victim_row_bits(study::DataPattern::kCheckered0);
  const auto aggressor_bits =
      study::aggressor_row_bits(study::DataPattern::kCheckered0);

  bender::ProgramBuilder builder;
  builder.write_row(victim.bank, victim.row, victim_bits);
  for (int row : aggressors) {
    builder.write_row(victim.bank, row, aggressor_bits);
  }
  builder.loop_begin(windows);
  builder.ref(victim.bank.channel);
  for (int i = 0; i < timing.activation_budget() / 2; ++i) {
    for (int row : aggressors) {
      builder.act(victim.bank, row).pre(victim.bank);
    }
  }
  builder.loop_end();
  builder.read_row(victim.bank, victim.row);
  const auto result = chip.run(std::move(builder).build());
  return result.row(0).count_diff(victim_bits);
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = util::Cli::parse_or_exit(
      argc, argv,
      {{"--windows", util::FlagKind::kInt,
        "tREFI windows per attack (default 8205, one tREFW)"}},
      "TRR-bypass attack (Sec. 7) on Chip 0 under full periodic refresh");
  const auto windows = static_cast<std::uint64_t>(
      cli.get_int("--windows", 8205));  // one tREFW worth of tREFI windows

  bender::Platform platform;
  auto& chip = platform.chip(0);  // the TRR-protected chip
  std::cout << "Attacking " << chip.profile().label
            << " (undocumented TRR active, REF issued every tREFI)\n\n";

  const auto map =
      study::AddressMap::reverse_engineer(chip, dram::BankAddress{0, 0, 0});
  const dram::RowAddress victim{{0, 0, 0}, 4501};

  // Attempt 1: naive double-sided hammer, full budget on the aggressors.
  const int naive_flips = naive_attack(chip, map, victim, windows);
  std::cout << "Naive double-sided attack: " << naive_flips
            << " bitflips (TRR keeps refreshing the victim)\n\n";

  // Attempt 2: the Sec. 7 bypass — dummy rows absorb the first-ACT
  // detector and flush the recency sampler; aggressor activations stay at
  // or below half the window budget.
  util::Table table({"dummies", "aggr acts/window", "bitflips", "BER"});
  for (int dummies : {3, 4, 8}) {
    study::BypassConfig config;
    config.dummy_rows = dummies;
    config.aggressor_acts = 34;
    config.windows = windows;
    const auto result = study::run_bypass_attack(chip, map, victim, config);
    table.row()
        .cell(dummies)
        .cell(config.aggressor_acts)
        .cell(result.bitflips)
        .cell(util::format_double(100.0 * result.ber, 3) + "%");
  }
  table.print(std::cout);

  std::cout << "\nThree dummies leave one aggressor in the TRR's 4-entry\n"
               "sampler (neutralized); four or more bypass it (Takeaway 9).\n";
  return 0;
}
