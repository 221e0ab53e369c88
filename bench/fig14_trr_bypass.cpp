// Fig. 14 (Sec. 7): bit error rate of the TRR-bypass attack on Chip 0 as a
// function of the number of dummy rows and the per-aggressor activation
// count. Key findings reproduced: at least 4 dummy rows are needed; the
// dummy count barely matters beyond that; BER grows with aggressor
// activations.
//
// The (dummies, acts, row) grid runs through the resilient campaign
// runner: the multi-hour full-scale sweep checkpoints every attack trial
// and survives injected session faults (--fault-rate, --results/--resume).
#include "common.h"
#include "study/bypass.h"
#include "study/row_selection.h"

int main(int argc, char** argv) {
  using namespace hbmrd;
  bench::BenchContext ctx(
      argc, argv, "Fig. 14: TRR-bypass attack BER",
      {bench::kCampaignFlags,
       bench::kShardFlags,
       bench::kObservabilityFlags,
       {{"--windows", util::FlagKind::kInt,
         "tREFI windows per victim (default 8205; --full: 16410)"}}});
  const int chip_index = static_cast<int>(ctx.cli().get_int("--chip", 0));
  auto& chip = ctx.platform().chip(chip_index);
  const auto& map = ctx.map_of(chip_index);
  const int n_rows = ctx.rows(2, 64);
  // Paper: 8205 * 2 windows (~2 tREFW = 64 ms) per victim row.
  const auto windows = static_cast<std::uint64_t>(
      ctx.cli().get_int("--windows", ctx.full() ? 2 * 8205 : 8205));

  const std::vector<int> dummy_counts = {2, 3, 4, 5, 6, 7, 8};
  const std::vector<int> aggressor_acts = {18, 24, 30, 34};

  std::vector<int> victims;
  for (int row : study::middle_rows(n_rows * 16)) {
    if (static_cast<int>(victims.size()) >= n_rows) break;
    if (row % 16 != 1) continue;  // spread the victims out
    victims.push_back(row);
  }

  bench::CampaignObservability obs(ctx.cli());
  auto config = bench::campaign_config(
      ctx.cli(),
      {"dummies", "aggr_acts", "row", "acts_per_dummy", "ber", "flips"});
  obs.attach(config);
  runner::CampaignRunner campaign(chip, config);
  std::vector<runner::CampaignRunner::Trial> trials;
  for (int dummies : dummy_counts) {
    for (int acts : aggressor_acts) {
      for (int row : victims) {
        study::BypassConfig config;
        config.dummy_rows = dummies;
        config.aggressor_acts = acts;
        config.windows = windows;
        std::string key = "d";
        key += std::to_string(dummies);
        key += ":a";
        key += std::to_string(acts);
        key += ":row";
        key += std::to_string(row);
        trials.push_back(
            {std::move(key),
             [&map, dummies, acts, row, config](
                 bender::ChipSession& session) -> std::vector<std::string> {
               const auto result = study::run_bypass_attack(
                   session, map, {{0, 0, 0}, row}, config);
               return {std::to_string(dummies), std::to_string(acts),
                       std::to_string(row),
                       std::to_string(result.plan.acts_per_dummy),
                       util::format_double(result.ber, 8),
                       std::to_string(result.bitflips)};
             }});
      }
    }
  }
  const auto report = bench::run_campaign_or_die(ctx, campaign, trials);

  util::Table table({"dummies", "aggr acts", "acts/dummy", "mean BER",
                     "max BER", "rows w/ flips"});
  double mean_at_18 = 0, mean_at_24 = 0, mean_at_30 = 0, mean_at_34 = 0;
  int min_dummies_with_flips = 99;
  for (int dummies : dummy_counts) {
    for (int acts : aggressor_acts) {
      std::vector<double> bers;
      int rows_with_flips = 0;
      long long acts_per_dummy = 0;
      for (const auto& record : report.records) {
        if (record.cells.size() != 6 ||
            record.cells[0] != std::to_string(dummies) ||
            record.cells[1] != std::to_string(acts) ||
            record.cells[4].empty()) {
          continue;
        }
        // A resumed checkpoint can surface a record whose payload cells are
        // damaged (e.g. hand-edited or partially recovered): skip it with a
        // warning instead of letting std::stoll/stod/stoi throw out of the
        // aggregation loop.
        const auto apd = util::parse_i64(record.cells[3]);
        const auto ber = util::parse_double(record.cells[4]);
        const auto flips = util::parse_i64(record.cells[5]);
        if (!apd || !ber || !flips) {
          std::cerr << "warning: skipping checkpoint record '" << record.key
                    << "' with unparsable payload cells\n";
          if (obs.metrics() != nullptr) {
            obs.metrics()->add("bench.skipped_records", 1);
          }
          continue;
        }
        acts_per_dummy = *apd;
        bers.push_back(*ber);
        if (*flips > 0) ++rows_with_flips;
      }
      if (bers.empty()) continue;
      const double mean = util::mean(bers);
      if (rows_with_flips > 0) {
        min_dummies_with_flips = std::min(min_dummies_with_flips, dummies);
      }
      if (dummies == 8 && acts == 18) mean_at_18 = mean;
      if (dummies == 8 && acts == 24) mean_at_24 = mean;
      if (dummies == 8 && acts == 30) mean_at_30 = mean;
      if (dummies == 8 && acts == 34) mean_at_34 = mean;
      table.row()
          .cell(dummies)
          .cell(acts)
          .cell(acts_per_dummy)
          .cell(bench::ber_pct(mean))
          .cell(bench::ber_pct(util::max_of(bers)))
          .cell(rows_with_flips);
    }
  }
  table.print(std::cout);
  bench::print_campaign_report(std::cout, report,
                               campaign.session().stats());
  if (report.aborted) return 2;
  // Trials execute on per-worker device twins; the campaign report carries
  // their summed counters (the facade chip never sees trial activity).
  const auto& counters = report.device_counters;
  std::cout << "Device counters: " << counters.activations
            << " ACTs observed, " << counters.defense_victim_refreshes
            << " TRR victim refreshes issued across the sweep\n";

  ctx.banner("Paper reference points (Sec. 7, Takeaway 9)");
  ctx.compare("dummy rows needed to bypass the TRR", ">= 4",
              ">= " + std::to_string(min_dummies_with_flips));
  ctx.compare("activation budget per tREFI window", "78",
              std::to_string(chip.stack().timing().activation_budget()));
  if (mean_at_18 > 0) {
    ctx.compare("mean BER growth from 18 to 24/30/34 aggr acts (8 dummies)",
                "2.79x / 6.72x / 10.28x",
                util::format_double(mean_at_24 / mean_at_18, 2) + "x / " +
                    util::format_double(mean_at_30 / mean_at_18, 2) +
                    "x / " +
                    util::format_double(mean_at_34 / mean_at_18, 2) + "x");
  }
  ctx.compare("dummy count beyond 4 barely matters",
              "mean BER varies by 0.003 between 4 and 7 dummies",
              "compare rows with equal aggr acts above");
  obs.finish();
  return 0;
}
