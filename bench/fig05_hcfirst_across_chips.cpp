// Fig. 5 (Sec. 4.1): HC_first distribution across the six chips for each
// data pattern (Obsv. 4-6: minima near 14.5K-18K, chip-to-chip variation).
#include "common.h"
#include "study/hc_first.h"
#include "study/row_selection.h"

int main(int argc, char** argv) {
  using namespace hbmrd;
  bench::BenchContext ctx(argc, argv, "Fig. 5: HC_first across HBM2 chips");
  const int n_rows = ctx.rows(16, 3072);
  const dram::BankAddress bank{0, 0, 0};

  util::Table table({"Chip", "Pattern", "min HC_first", "median", "mean",
                     "no-flip rows"});
  std::vector<double> chip_min(
      static_cast<std::size_t>(ctx.platform().chip_count()), 1e18);
  for (int chip_index : ctx.chips()) {
    auto& chip = ctx.platform().chip(chip_index);
    const auto& map = ctx.map_of(chip_index);
    for (auto pattern : study::kAllPatterns) {
      study::HcSearchConfig config;
      config.pattern = pattern;
      std::vector<double> hcs;
      int misses = 0;
      for (int row : study::spread_rows(n_rows)) {
        const auto hc = study::find_hc_first(chip, map, {bank, row}, config);
        if (hc) {
          hcs.push_back(static_cast<double>(*hc));
        } else {
          ++misses;
        }
      }
      if (hcs.empty()) continue;
      chip_min[static_cast<std::size_t>(chip_index)] = std::min(
          chip_min[static_cast<std::size_t>(chip_index)],
          util::min_of(hcs));
      table.row()
          .cell(chip.profile().label)
          .cell(study::to_string(pattern))
          .cell(util::min_of(hcs), 0)
          .cell(util::median(hcs), 0)
          .cell(util::mean(hcs), 0)
          .cell(misses);
    }
  }
  table.print(std::cout);

  ctx.banner("Paper reference points (Obsv. 4-6, Takeaway 2)");
  ctx.compare("minimum HC_first anywhere", "14531 (Chip 5)",
              "min column above (sampled rows: expect the same order of "
              "magnitude)");
  ctx.compare("per-chip minima", "18087/16611/15500/17164/15500/14531",
              [&] {
                std::string s;
                for (std::size_t i = 0; i < chip_min.size(); ++i) {
                  if (chip_min[i] > 9e17) continue;
                  if (!s.empty()) s += "/";
                  s += util::format_double(chip_min[i], 0);
                }
                return s;
              }());
  ctx.compare("Rowstripe0 median above Rowstripe1 (Obsv. 13 direction)",
              "103905 vs 75990 (one channel of Chip 1)",
              "compare pattern rows per chip");
  return 0;
}
