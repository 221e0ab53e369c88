// RowPress probe (Sec. 6): watch a row's HC_first collapse as the
// aggressor on-time grows — until a single activation pair suffices.
#include <iostream>

#include "bender/platform.h"
#include "study/hc_first.h"
#include "study/rowpress.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace hbmrd;
  const auto cli = util::Cli::parse_or_exit(
      argc, argv,
      {{"--chip", util::FlagKind::kInt, "chip index (default 2)"},
       {"--row", util::FlagKind::kInt, "victim row (default 4500)"}},
      "RowPress probe (Sec. 6): HC_first as the aggressor on-time grows");
  const int chip_index = static_cast<int>(cli.get_int("--chip", 2));
  const int row = static_cast<int>(cli.get_int("--row", 4500));

  bender::Platform platform;
  auto& chip = platform.chip(chip_index);
  const auto map = study::AddressMap::from_scheme(chip.profile().mapping);
  const auto& timing = chip.stack().timing();
  const dram::RowAddress victim{{0, 0, 0}, row};

  std::cout << "RowPress on " << chip.profile().label << ", row " << row
            << " (double-sided, Checkered0)\n\n";

  util::Table table({"tAggON", "HC_first", "attack time"});
  for (const auto on_cycles : study::fig13_taggon_values(timing)) {
    study::HcSearchConfig config;
    config.on_cycles = on_cycles;
    config.max_hammer_count =
        study::max_hammers_in(timing, 2, on_cycles, timing.t_refw);
    const auto hc = study::find_hc_first(chip, map, victim, config);
    const double on_ns = dram::cycles_to_ns(on_cycles);
    std::string hc_text = "> window";
    std::string time_text = "-";
    if (hc) {
      hc_text = std::to_string(*hc);
      const auto duration =
          study::hammer_duration(timing, 2, on_cycles, *hc);
      time_text =
          util::format_double(dram::cycles_to_seconds(duration) * 1e3, 2) +
          " ms";
    }
    table.row()
        .cell(on_ns < 1e3   ? util::format_double(on_ns, 0) + " ns"
              : on_ns < 1e6 ? util::format_double(on_ns / 1e3, 1) + " us"
                            : util::format_double(on_ns / 1e6, 1) + " ms")
        .cell(hc_text)
        .cell(time_text);
  }
  table.print(std::cout);
  std::cout << "\nKeeping the aggressors open longer amplifies disturbance\n"
               "(Takeaway 7); at 16 ms a single activation pair flips cells\n"
               "(the paper's HC_first = 1 observation).\n";
  return 0;
}
