// Memory templating (Sec. 8.1): a RowHammer attacker first *templates*
// memory — scans rows for exploitable bitflips — before steering a victim
// page onto a flippable frame. The paper's second attack implication:
// targeting the most vulnerable HBM2 channel finds exploitable flips
// faster. This example measures exactly that speedup, in DRAM time.
#include <algorithm>
#include <iostream>

#include "bender/platform.h"
#include "study/ber.h"
#include "study/row_selection.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace hbmrd;

/// An "exploitable" flip for a page-table attack: a 1 -> 0 flip inside the
/// physical-frame-number field of a 64-bit PTE-sized word (bits 12..39 of
/// the word), which would redirect a page-table entry.
bool is_exploitable(int bit, bool stored_one_flipped_to_zero) {
  const int bit_in_word = bit % 64;
  return stored_one_flipped_to_zero && bit_in_word >= 12 && bit_in_word < 40;
}

struct TemplateResult {
  int rows_scanned = 0;
  int exploitable_rows = 0;
  double dram_seconds = 0;  // time the scan occupied the DRAM
  double seconds_to_first = -1;
};

TemplateResult template_channel(bender::HbmChip& chip,
                                const study::AddressMap& map, int channel,
                                int rows_to_scan) {
  TemplateResult result;
  const auto start_cycle = chip.now();
  study::BerConfig config;
  config.pattern = study::DataPattern::kCheckered0;
  config.hammer_count = 150'000;  // templating budget per row
  for (int row : study::spread_rows(rows_to_scan)) {
    const auto ber =
        study::measure_row_ber(chip, map, {{channel, 0, 0}, row}, config);
    ++result.rows_scanned;
    const auto victim_bits = study::victim_row_bits(config.pattern);
    const bool exploitable = std::any_of(
        ber.flipped_bits.begin(), ber.flipped_bits.end(), [&](int bit) {
          return is_exploitable(bit, victim_bits.get(bit));
        });
    if (exploitable) {
      ++result.exploitable_rows;
      if (result.seconds_to_first < 0) {
        result.seconds_to_first =
            dram::cycles_to_seconds(chip.now() - start_cycle);
      }
    }
  }
  result.dram_seconds = dram::cycles_to_seconds(chip.now() - start_cycle);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = util::Cli::parse_or_exit(
      argc, argv,
      {{"--chip", util::FlagKind::kInt, "chip index (default 0)"},
       {"--survey-rows", util::FlagKind::kInt,
        "rows surveyed per channel to rank them (default 10)"},
       {"--scan-rows", util::FlagKind::kInt,
        "rows templated per channel (default 64)"}},
      "Memory templating (Sec. 8.1): channel-aware templating speedup");
  const int chip_index = static_cast<int>(cli.get_int("--chip", 0));
  const int survey_rows = static_cast<int>(cli.get_int("--survey-rows", 10));
  const int scan_rows = static_cast<int>(cli.get_int("--scan-rows", 64));

  bender::Platform platform;
  auto& chip = platform.chip(chip_index);
  std::cout << "Templating attack against " << chip.profile().label << "\n";

  // Phase 0: reverse engineer the row mapping (attacker prerequisite).
  const auto map =
      study::AddressMap::reverse_engineer(chip, dram::BankAddress{0, 0, 0});
  std::cout << "Recovered row mapping: " << dram::to_string(map.scheme())
            << "\n\n";

  // Phase 1: cheap survey — rank channels by mean BER on a few rows.
  std::cout << "Phase 1: surveying channel vulnerability (" << survey_rows
            << " rows/channel)\n";
  std::vector<std::pair<double, int>> ranking;  // (mean BER, channel)
  for (int ch = 0; ch < dram::kChannels; ++ch) {
    study::BerConfig config;
    std::vector<double> bers;
    for (int row : study::spread_rows(survey_rows)) {
      bers.push_back(
          study::measure_row_ber(chip, map, {{ch, 0, 0}, row}, config).ber);
    }
    ranking.emplace_back(util::mean(bers), ch);
  }
  std::sort(ranking.rbegin(), ranking.rend());
  const int best = ranking.front().second;
  const int worst = ranking.back().second;
  std::cout << "  most vulnerable: CH" << best << " (mean BER "
            << 100.0 * ranking.front().first << "%), least: CH" << worst
            << " (" << 100.0 * ranking.back().first << "%)\n\n";

  // Phase 2: template the best and the worst channel and compare.
  std::cout << "Phase 2: templating " << scan_rows << " rows per channel\n";
  const auto on_best = template_channel(chip, map, best, scan_rows);
  const auto on_worst = template_channel(chip, map, worst, scan_rows);

  util::Table table({"Channel", "rows", "exploitable rows",
                     "DRAM time (ms)", "time to first hit (ms)"});
  auto add = [&](int ch, const TemplateResult& r) {
    table.row()
        .cell("CH" + std::to_string(ch))
        .cell(r.rows_scanned)
        .cell(r.exploitable_rows)
        .cell(r.dram_seconds * 1e3, 1)
        .cell(r.seconds_to_first < 0
                  ? std::string("none found")
                  : util::format_double(r.seconds_to_first * 1e3, 1));
  };
  add(best, on_best);
  add(worst, on_worst);
  table.print(std::cout);

  std::cout << "\nTakeaway 3 in attack form: the attacker harvests more\n"
               "exploitable PTE-style flips per unit of hammer time on the\n"
               "most vulnerable channel, accelerating memory templating.\n";
  return 0;
}
