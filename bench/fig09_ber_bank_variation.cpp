// Fig. 9 (Sec. 4.3): per-bank BER variation on Chip 0 — each bank plotted
// as (coefficient of variation, mean BER) over its first/middle/last rows.
// Obsv. 16-17: bimodal clusters; channel effects dominate bank effects.
#include "common.h"
#include "study/ber.h"
#include "study/row_selection.h"

int main(int argc, char** argv) {
  using namespace hbmrd;
  bench::BenchContext ctx(argc, argv, "Fig. 9: BER variation across banks",
                          {{{"--banks", util::FlagKind::kInt,
                             "banks per channel (default 3; --full: 16)"}}});
  const int chip_index = static_cast<int>(ctx.cli().get_int("--chip", 0));
  auto& chip = ctx.platform().chip(chip_index);
  const auto& map = ctx.map_of(chip_index);
  // Paper: first/middle/last 100 rows of all 256 banks. Scaled default:
  // 10 rows per region over 2 channels x 2 pseudo channels x 4 banks.
  const int rows_per_region = ctx.rows(8, 100);
  const auto channels = ctx.channels(2);
  const int pseudo_channels = ctx.full() ? 2 : 2;
  const int banks = ctx.full()
                        ? dram::kBanksPerPseudoChannel
                        : static_cast<int>(ctx.cli().get_int("--banks", 3));

  study::BerConfig config;
  config.pattern = study::DataPattern::kCheckered0;
  util::Table table({"Bank", "mean BER", "CV"});
  std::vector<double> means;
  std::vector<double> cvs;
  std::vector<double> per_channel_mean;
  for (int ch : channels) {
    std::vector<double> channel_bers;
    for (int pc = 0; pc < pseudo_channels; ++pc) {
      for (int b = 0; b < banks; ++b) {
        const dram::BankAddress bank{ch, pc, b};
        std::vector<double> bers;
        for (int row : study::begin_middle_end_rows(rows_per_region)) {
          bers.push_back(
              study::measure_row_ber(chip, map, {bank, row}, config).ber);
        }
        const double mean = util::mean(bers);
        const double cv = util::coefficient_of_variation(bers);
        means.push_back(mean);
        cvs.push_back(cv);
        channel_bers.insert(channel_bers.end(), bers.begin(), bers.end());
        table.row()
            .cell("CH" + std::to_string(ch) + "/PC" + std::to_string(pc) +
                  "/B" + std::to_string(b))
            .cell(bench::ber_pct(mean))
            .cell(cv, 3);
      }
    }
    per_channel_mean.push_back(util::mean(channel_bers));
  }
  table.print(std::cout);

  ctx.banner("Paper reference points (Obsv. 16-17, Takeaway 5)");
  ctx.compare("mean BER spread across banks of one channel",
              "up to 0.23% (CH7)",
              bench::ber_pct(util::max_of(means) - util::min_of(means)));
  ctx.compare(
      "higher-mean banks have lower CV (bimodal clusters)",
      "two clusters in the (CV, mean) plane",
      "Pearson(mean, CV) = " +
          util::format_double(util::pearson(means, cvs), 2) +
          " (negative = consistent)");
  if (per_channel_mean.size() >= 2) {
    ctx.compare("channel variation dominates bank variation",
                "banks cluster by channel",
                "channel means " + bench::ber_pct(per_channel_mean[0]) +
                    " vs " + bench::ber_pct(per_channel_mean[1]));
  }
  return 0;
}
