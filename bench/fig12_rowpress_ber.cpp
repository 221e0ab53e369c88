// Fig. 12 (Sec. 6): BER as the aggressor on-time grows from the tRAS
// minimum to 9*tREFI at a fixed 150K hammer count, with retention-profiled
// bits excluded (footnote 6). Obsv. 21-22: BER grows monotonically and
// converges near 50% at 35.1 us.
#include "common.h"
#include "study/rowpress.h"
#include "study/row_selection.h"

int main(int argc, char** argv) {
  using namespace hbmrd;
  bench::BenchContext ctx(argc, argv, "Fig. 12: BER vs tAggON",
                          {bench::kCsvFlags});
  const int chip_index = static_cast<int>(ctx.cli().get_int("--chip", 3));
  auto& chip = ctx.platform().chip(chip_index);
  const auto& map = ctx.map_of(chip_index);
  const auto& timing = chip.stack().timing();
  // Paper: first/middle/last 128 rows, 8 channels. Scaled: 4 rows/region,
  // 3 channels.
  const int rows_per_region = ctx.rows(4, 128);
  const auto channels = ctx.channels(3);

  const auto taggon_values = study::fig12_taggon_values(timing);
  util::Table table({"tAggON", "mean BER", "min ch mean", "max ch mean",
                     "retention bits excluded"});
  auto csv = ctx.csv("fig12_rowpress_ber",
                     {"taggon_ns", "channel", "row", "ber",
                      "retention_excluded"});
  std::vector<double> means;
  for (const auto on_cycles : taggon_values) {
    study::RowPressBerConfig config;
    config.hammer_count = 150'000;
    config.on_cycles = on_cycles;
    std::vector<double> channel_means;
    std::uint64_t excluded = 0;
    for (int ch : channels) {
      std::vector<double> bers;
      for (int row : study::begin_middle_end_rows(rows_per_region)) {
        const auto result = study::measure_rowpress_ber(
            chip, map, {{ch, 0, 0}, row}, config);
        bers.push_back(result.ber);
        excluded += static_cast<std::uint64_t>(result.retention_excluded);
        if (csv) {
          csv->add()
              .cell(dram::cycles_to_ns(on_cycles))
              .cell(ch)
              .cell(row)
              .cell(result.ber)
              .cell(result.retention_excluded);
        }
      }
      channel_means.push_back(util::mean(bers));
    }
    const double mean = util::mean(channel_means);
    means.push_back(mean);
    const double ns = dram::cycles_to_ns(on_cycles);
    table.row()
        .cell(ns < 1000 ? util::format_double(ns, 1) + " ns"
                        : util::format_double(ns / 1000.0, 1) + " us")
        .cell(bench::ber_pct(mean, 2))
        .cell(bench::ber_pct(util::min_of(channel_means), 2))
        .cell(bench::ber_pct(util::max_of(channel_means), 2))
        .cell(static_cast<long long>(excluded));
  }
  table.print(std::cout);

  ctx.banner("Paper reference points (Obsv. 21-22, Takeaway 7)");
  ctx.compare("mean BER at 29/58/87/116 ns, 3.9/35.1 us",
              "0.08 / 0.24 / 0.40 / 0.73 / 31.00 / 50.35 (%)",
              [&] {
                std::string s;
                for (double m : means) {
                  if (!s.empty()) s += " / ";
                  s += util::format_double(100.0 * m, 2);
                }
                return s + " (%)";
              }());
  ctx.compare("convergence near 50% at 35.1 us (Checkered0 victims)",
              "~50% across chips/channels",
              bench::ber_pct(means.back(), 1));
  return 0;
}
