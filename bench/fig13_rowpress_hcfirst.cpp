// Fig. 13 (Sec. 6): HC_first versus tAggON (minimum, tREFI, 9*tREFI, and
// 16 ms = half the refresh window). Obsv. 23: HC_first collapses by ~55x at
// tREFI, ~222x at 9*tREFI, and reaches 1 at 16 ms. Only rows whose first
// bitflip occurs within a 32 ms refresh window at every on-time are shown,
// as in the paper.
#include "common.h"
#include "study/hc_first.h"
#include "study/rowpress.h"
#include "study/row_selection.h"

int main(int argc, char** argv) {
  using namespace hbmrd;
  bench::BenchContext ctx(argc, argv, "Fig. 13: HC_first vs tAggON",
                          {bench::kCsvFlags});
  const int chip_index = static_cast<int>(ctx.cli().get_int("--chip", 2));
  auto& chip = ctx.platform().chip(chip_index);
  const auto& map = ctx.map_of(chip_index);
  const auto& timing = chip.stack().timing();
  const int n_rows = ctx.rows(12, 384);
  const auto channels = ctx.channels(3);
  const auto taggon_values = study::fig13_taggon_values(timing);

  // Collect HC_first per row per on-time; a row qualifies if it flips
  // within the refresh window at every tested on-time.
  struct RowSeries {
    std::vector<double> hc;  // parallel to taggon_values
  };
  auto csv = ctx.csv("fig13_rowpress_hcfirst",
                     {"channel", "row", "taggon_ns", "hc_first"});
  std::vector<RowSeries> qualified;
  for (int ch : channels) {
    for (int row : study::spread_rows(n_rows)) {
      RowSeries series;
      bool ok = true;
      for (const auto on_cycles : taggon_values) {
        study::HcSearchConfig config;
        config.on_cycles = on_cycles;
        config.max_hammer_count =
            study::max_hammers_in(timing, 2, on_cycles, timing.t_refw);
        const auto hc =
            study::find_hc_first(chip, map, {{ch, 0, 0}, row}, config);
        if (!hc) {
          ok = false;
          break;
        }
        series.hc.push_back(static_cast<double>(*hc));
        if (csv) {
          csv->add().cell(ch).cell(row).cell(
              dram::cycles_to_ns(on_cycles)).cell(
              static_cast<long long>(*hc));
        }
      }
      if (ok) qualified.push_back(std::move(series));
    }
  }

  ctx.banner("HC_first per tAggON over " + std::to_string(qualified.size()) +
             " qualifying rows");
  util::Table table({"tAggON", "mean HC_first", "min", "median"});
  std::vector<double> mean_by_on;
  for (std::size_t i = 0; i < taggon_values.size(); ++i) {
    std::vector<double> hcs;
    for (const auto& series : qualified) hcs.push_back(series.hc[i]);
    if (hcs.empty()) continue;
    mean_by_on.push_back(util::mean(hcs));
    const double ns = dram::cycles_to_ns(taggon_values[i]);
    table.row()
        .cell(ns < 1e3   ? util::format_double(ns, 1) + " ns"
              : ns < 1e6 ? util::format_double(ns / 1e3, 1) + " us"
                         : util::format_double(ns / 1e6, 1) + " ms")
        .cell(util::mean(hcs), 0)
        .cell(util::min_of(hcs), 0)
        .cell(util::median(hcs), 0);
  }
  table.print(std::cout);

  ctx.banner("Paper reference points (Obsv. 23, Takeaway 7)");
  ctx.compare("mean HC_first at min / tREFI / 9*tREFI / 16 ms",
              "83689 / 1519 / 376 / 1", [&] {
                std::string s;
                for (double m : mean_by_on) {
                  if (!s.empty()) s += " / ";
                  s += util::format_double(m, 0);
                }
                return s;
              }());
  if (mean_by_on.size() == 4 && mean_by_on[1] > 0) {
    ctx.compare("amplification at tREFI / 9*tREFI",
                "~55x / ~222x",
                util::format_double(mean_by_on[0] / mean_by_on[1], 0) +
                    "x / " +
                    util::format_double(mean_by_on[0] / mean_by_on[2], 0) +
                    "x");
    ctx.compare("HC_first at 16 ms", "1",
                util::format_double(mean_by_on[3], 0));
  }
  return 0;
}
