// Fig. 4 (Sec. 4.1): RowHammer BER distribution across the six chips for
// each data pattern at a 256K hammer count, plus the per-chip WCDP.
#include "common.h"
#include "study/ber.h"
#include "study/hc_first.h"
#include "study/row_selection.h"

int main(int argc, char** argv) {
  using namespace hbmrd;
  bench::BenchContext ctx(argc, argv, "Fig. 4: BER across HBM2 chips",
                          {bench::kCsvFlags});
  const int n_rows = ctx.rows(32, 16384);
  const dram::BankAddress bank{0, 0, 0};

  util::Table table({"Chip", "Pattern", "mean BER", "min BER", "max BER"});
  auto csv = ctx.csv("fig04_ber", {"chip", "pattern", "row", "ber"});
  std::vector<double> chip_wcdp_mean(
      static_cast<std::size_t>(ctx.platform().chip_count()), 0.0);
  for (int chip_index : ctx.chips()) {
    auto& chip = ctx.platform().chip(chip_index);
    const auto& map = ctx.map_of(chip_index);
    double best_mean = 0.0;
    for (auto pattern : study::kAllPatterns) {
      study::BerConfig config;
      config.pattern = pattern;
      std::vector<double> bers;
      for (int row : study::spread_rows(n_rows)) {
        bers.push_back(
            study::measure_row_ber(chip, map, {bank, row}, config).ber);
        if (csv) {
          csv->add()
              .cell(chip_index)
              .cell(study::to_string(pattern))
              .cell(row)
              .cell(bers.back());
        }
      }
      table.row()
          .cell(chip.profile().label)
          .cell(study::to_string(pattern))
          .cell(bench::ber_pct(util::mean(bers)))
          .cell(bench::ber_pct(util::min_of(bers)))
          .cell(bench::ber_pct(util::max_of(bers)));
      best_mean = std::max(best_mean, util::mean(bers));
    }
    chip_wcdp_mean[static_cast<std::size_t>(chip_index)] = best_mean;
  }
  table.print(std::cout);

  ctx.banner("Paper reference points (Obsv. 1-3, Takeaway 1-2)");
  ctx.compare("bitflips in every tested chip", "yes", "see table");
  const auto chips = ctx.chips();
  if (chips.size() == 6) {
    ctx.compare(
        "chip-level WCDP mean BER spread (max chip - min chip)",
        "0.49% (Chip 0 1.28% vs Chip 5 0.80%)",
        bench::ber_pct(*std::max_element(chip_wcdp_mean.begin(),
                                         chip_wcdp_mean.end()) -
                       *std::min_element(chip_wcdp_mean.begin(),
                                         chip_wcdp_mean.end())) +
            " (Chip 0 " + bench::ber_pct(chip_wcdp_mean[0]) + " vs Chip 5 " +
            bench::ber_pct(chip_wcdp_mean[5]) + ")");
  }
  ctx.compare("max row BER anywhere", "3.02% (247 of 8192 bits)",
              "see max column");
  ctx.compare("Checkered > Rowstripe mean BER", "0.76% vs 0.67%",
              "per-pattern rows above");
  return 0;
}
