// Fig. 10 (Sec. 5): distribution of the hammer counts inducing the 1st to
// 10th bitflip of a row, normalized to HC_first (Obsv. 18-19: up to 10
// bitflips typically cost < 2x HC_first; data patterns shift it modestly).
#include "common.h"
#include "study/hcn.h"
#include "study/row_selection.h"

int main(int argc, char** argv) {
  using namespace hbmrd;
  bench::BenchContext ctx(argc, argv,
                          "Fig. 10: HC_1..HC_10 normalized to HC_first",
                          {{{"--pattern", util::FlagKind::kString,
                             "data pattern (default Rowstripe1)"}}});
  // Paper: 32 rows from each of begin/middle/end of one bank in the two
  // most vulnerable channels of every chip.
  const int rows_per_region = ctx.rows(3, 32);
  const auto pattern_name =
      ctx.cli().get_string("--pattern", "Rowstripe1");
  study::DataPattern pattern = study::DataPattern::kRowstripe1;
  for (auto p : study::kAllPatterns) {
    if (study::to_string(p) == pattern_name) pattern = p;
  }

  std::vector<std::vector<double>> normalized(study::kHcnFlips);
  double extreme_min = 1e9;
  double extreme_max = 0;
  for (int chip_index : ctx.chips()) {
    auto& chip = ctx.platform().chip(chip_index);
    const auto& map = ctx.map_of(chip_index);
    study::HcSearchConfig config;
    config.pattern = pattern;
    for (int ch : ctx.channels(2)) {
      for (int row : study::begin_middle_end_rows(rows_per_region)) {
        const auto result =
            study::measure_hcn(chip, map, {{ch, 0, 0}, row}, config);
        if (!result.complete()) continue;
        for (int k = 0; k < study::kHcnFlips; ++k) {
          const double norm = result.normalized(k);
          normalized[static_cast<std::size_t>(k)].push_back(norm);
        }
        extreme_min = std::min(extreme_min, result.normalized(9));
        extreme_max = std::max(extreme_max, result.normalized(9));
      }
    }
  }

  ctx.banner("Normalized hammer count per bitflip index (" +
             study::to_string(pattern) + ")");
  util::Table table({"n-th flip", "mean", "q1", "median", "q3", "max"});
  for (int k = 0; k < study::kHcnFlips; ++k) {
    const auto& xs = normalized[static_cast<std::size_t>(k)];
    if (xs.empty()) continue;
    const auto s = util::summarize(xs);
    table.row()
        .cell(k + 1)
        .cell(s.mean, 3)
        .cell(s.q1, 3)
        .cell(s.median, 3)
        .cell(s.q3, 3)
        .cell(s.max, 3);
  }
  table.print(std::cout);

  ctx.banner("Paper reference points (Obsv. 18-19)");
  if (!normalized[1].empty()) {
    ctx.compare("mean HC_2nd / HC_4th / HC_8th / HC_10th (Rowstripe1)",
                "1.19x / 1.41x / 1.66x / 1.76x",
                util::format_double(util::mean(normalized[1]), 2) + "x / " +
                    util::format_double(util::mean(normalized[3]), 2) +
                    "x / " +
                    util::format_double(util::mean(normalized[7]), 2) +
                    "x / " +
                    util::format_double(util::mean(normalized[9]), 2) + "x");
  }
  ctx.compare("HC_10th range across rows", "1.15x .. 5.22x of HC_first",
              util::format_double(extreme_min, 2) + "x .. " +
                  util::format_double(extreme_max, 2) + "x");
  ctx.compare("10 bitflips for < 2x HC_first on average", "yes",
              util::mean(normalized[9]) < 2.0 ? "yes" : "no");
  return 0;
}
