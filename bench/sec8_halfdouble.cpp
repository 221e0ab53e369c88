// Sec. 8.1, fourth attack implication: the undocumented TRR's victim
// refreshes are themselves row activations, so they carry disturbance to
// rows *two* away from the hammered aggressor — the HalfDouble vector
// (Kogler et al., USENIX Security 2022). This bench builds two bit-
// identical chips, one with the TRR enabled and one without, hammers one
// aggressor under full refresh duty, and compares the distance-2 row's
// accumulated dose.
#include "common.h"

namespace {

using namespace hbmrd;

/// Hammers `aggressor` continuously for `windows` tREFI windows with one
/// REF per window (the aggressor monopolizes the activation budget, so
/// the TRR detects it at every capable REF).
void hammer_with_refresh(bender::HbmChip& chip, const dram::BankAddress& bank,
                         int aggressor, std::uint64_t windows) {
  const auto& timing = chip.stack().timing();
  bender::ProgramBuilder builder;
  builder.loop_begin(windows);
  builder.ref(bank.channel);
  for (int i = 0; i < timing.activation_budget(); ++i) {
    builder.act(bank, aggressor).pre(bank);
  }
  builder.loop_end();
  chip.run(std::move(builder).build());
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchContext ctx(argc, argv,
                          "Sec. 8.1: HalfDouble vector via TRR refreshes",
                          {{{"--windows", util::FlagKind::kInt,
                             "tREFI windows per attack (default 16410)"}}});
  const auto windows = static_cast<std::uint64_t>(
      ctx.cli().get_int("--windows", 2 * 8205));
  const dram::BankAddress bank{0, 0, 0};
  const int aggressor_physical = 4400;

  auto profiles = dram::chip_profiles();
  auto protected_profile = profiles[2];  // identity mapping, no TRR...
  protected_profile.has_undocumented_trr = true;
  auto open_profile = profiles[2];
  open_profile.has_undocumented_trr = false;

  util::Table table({"Chip variant", "dose at distance 1 (A+1)",
                     "dose at distance 2 (A+2, adjacent component)"});
  double dose_with_trr = 0;
  double dose_without_trr = 0;
  for (const bool with_trr : {true, false}) {
    bender::HbmChip chip(with_trr ? protected_profile : open_profile);
    hammer_with_refresh(chip, bank, aggressor_physical, windows);
    // Diagnostic backdoor: read the distance-2 row's dose ledger. Its
    // *adjacent* (distance-1) component can only come from the TRR's
    // victim-refresh activations of A+1 — the direct blast-radius dose
    // from A lands in the ledger's distance-2 epochs instead.
    auto& bank_model = chip.stack().bank(bank);
    const auto* d1 = bank_model.ledger(aggressor_physical + 1);
    const auto* d2 = bank_model.ledger(aggressor_physical + 2);
    const double near = d1 ? d1->adjacent_dose() : 0.0;
    const double far = d2 ? d2->adjacent_dose() : 0.0;
    (with_trr ? dose_with_trr : dose_without_trr) = far;
    table.row()
        .cell(with_trr ? "undocumented TRR active" : "no TRR")
        .cell(near, 1)
        .cell(far, 1);
  }
  table.print(std::cout);

  ctx.banner("Reading");
  ctx.compare("TRR victim refreshes disturb rows at distance 2",
              "HalfDouble access patterns become possible (Sec. 8.1)",
              dose_with_trr > dose_without_trr
                  ? "confirmed: adjacent-component dose at A+2 only with "
                    "TRR (" +
                        util::format_double(dose_with_trr, 1) + " vs " +
                        util::format_double(dose_without_trr, 1) + ")"
                  : "NOT observed");
  const double per_window = dose_with_trr / static_cast<double>(windows);
  std::cout
      << "Victim-refresh dose accrues at ~"
      << util::format_double(per_window * 8205.0, 0)
      << " activations per tREFW — orders of magnitude below direct\n"
         "hammering, matching HalfDouble's need for assisting near-\n"
         "aggressor accesses; the defense must not assume distance-1-only\n"
         "disturbance.\n";
  return 0;
}
