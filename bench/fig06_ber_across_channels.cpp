// Fig. 6 (Sec. 4.2): BER distribution across the eight 3D-stacked channels
// of each chip. Channel pairs (dies) cluster; the per-channel spread within
// a chip exceeds the chip-to-chip spread (Obsv. 7-11).
//
// The per-chip sweep runs through the resilient campaign runner: each
// (channel, row) measurement is one checkpointed trial, so the sweep
// survives injected session faults (--fault-rate) and can be killed and
// continued with --results FILE --resume (one checkpoint per chip:
// "--results out.csv" becomes "out.chipN.csv").
#include "common.h"
#include "study/ber.h"
#include "study/row_selection.h"

int main(int argc, char** argv) {
  using namespace hbmrd;
  bench::BenchContext ctx(argc, argv, "Fig. 6: BER across channels",
                          {bench::kCampaignFlags, bench::kShardFlags,
                           bench::kObservabilityFlags});
  const int n_rows = ctx.rows(24, 16384);
  const auto chips = ctx.cli().has("--chip") ? ctx.chips()
                                             : std::vector<int>{0, 1, 4, 5};
  const auto pattern = study::DataPattern::kCheckered0;

  // One observability bundle across all per-chip campaigns: deterministic
  // counters accumulate, and the snapshot is written once at the end.
  bench::CampaignObservability obs(ctx.cli());

  std::vector<double> chip_means;
  std::vector<double> within_chip_spreads;
  for (int chip_index : chips) {
    auto& chip = ctx.platform().chip(chip_index);
    const auto& map = ctx.map_of(chip_index);
    ctx.banner(chip.profile().label + " (" + study::to_string(pattern) + ")");

    auto config = bench::campaign_config(ctx.cli(), {"channel", "row", "ber"});
    config.results_path =
        bench::per_chip_path(config.results_path, chip_index);
    config.journal_path =
        bench::per_chip_path(config.journal_path, chip_index);
    obs.attach(config);
    runner::CampaignRunner campaign(chip, config);

    std::vector<runner::CampaignRunner::Trial> trials;
    for (int ch = 0; ch < dram::kChannels; ++ch) {
      for (int row : study::spread_rows(n_rows)) {
        trials.push_back(
            {"ch" + std::to_string(ch) + ":row" + std::to_string(row),
             [&map, ch, row, pattern](
                 bender::ChipSession& session) -> std::vector<std::string> {
               study::BerConfig ber_config;
               ber_config.pattern = pattern;
               const auto result = study::measure_row_ber(
                   session, map, {{ch, 0, 0}, row}, ber_config);
               return {std::to_string(ch), std::to_string(row),
                       util::format_double(result.ber, 8)};
             }});
      }
    }
    const auto report = bench::run_campaign_or_die(ctx, campaign, trials);

    util::Table table({"Channel", "die", "mean BER", "max BER"});
    std::vector<double> channel_means;
    double total = 0.0;
    for (int ch = 0; ch < dram::kChannels; ++ch) {
      std::vector<double> bers;
      for (const auto& record : report.records) {
        if (record.cells.size() == 3 &&
            record.cells[0] == std::to_string(ch) &&
            !record.cells[2].empty()) {
          // Resumed checkpoints can surface damaged payload cells; skip
          // them rather than letting std::stod throw out of the analysis.
          if (const auto ber = util::parse_double(record.cells[2])) {
            bers.push_back(*ber);
          } else if (obs.metrics() != nullptr) {
            obs.metrics()->add("bench.skipped_records", 1);
          }
        }
      }
      if (bers.empty()) continue;
      const double mean = util::mean(bers);
      channel_means.push_back(mean);
      total += mean;
      table.row()
          .cell("CH" + std::to_string(ch))
          .cell(dram::die_of_channel(ch))
          .cell(bench::ber_pct(mean))
          .cell(bench::ber_pct(util::max_of(bers)));
    }
    table.print(std::cout);
    bench::print_campaign_report(std::cout, report,
                                 campaign.session().stats());
    if (report.aborted) return 2;
    const double spread =
        util::max_of(channel_means) - util::min_of(channel_means);
    within_chip_spreads.push_back(spread);
    chip_means.push_back(total / dram::kChannels);
    std::cout << "  max/min channel mean ratio: "
              << util::format_double(util::max_of(channel_means) /
                                         std::max(util::min_of(channel_means),
                                                  1e-9),
                                     2)
              << "x, spread " << bench::ber_pct(spread) << "\n";
  }

  ctx.banner("Paper reference points (Obsv. 8, 10, 11, Takeaway 3)");
  ctx.compare("worst channel vs best channel in a chip",
              "1.99x (Chip 0, CH7 vs CH3, WCDP)", "ratios above");
  if (chip_means.size() >= 2) {
    const double chip_spread =
        util::max_of(chip_means) - util::min_of(chip_means);
    ctx.compare(
        "within-chip channel spread vs cross-chip spread",
        "0.88% vs 0.38% (Checkered0; Chip 5 excepted)",
        bench::ber_pct(util::max_of(within_chip_spreads)) + " vs " +
            bench::ber_pct(chip_spread));
  }
  ctx.compare("channel pairs behave alike (shared die)",
              "CH3/CH4-style grouping", "compare die column per chip");
  obs.finish();
  return 0;
}
