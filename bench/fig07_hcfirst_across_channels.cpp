// Fig. 7 (Sec. 4.2): HC_first distributions across channels and data
// patterns (Obsv. 12-13: vulnerable channels have more small-HC_first rows;
// the distribution shifts with the data pattern).
//
// This sweep runs through the resilient campaign runner: each
// (channel, pattern, row) search is one checkpointed trial, so the sweep
// survives injected session faults (--fault-rate) and can be killed and
// continued with --results FILE --resume.
#include "common.h"
#include "study/hc_first.h"
#include "study/row_selection.h"

int main(int argc, char** argv) {
  using namespace hbmrd;
  bench::BenchContext ctx(argc, argv, "Fig. 7: HC_first across channels");
  const int n_rows = ctx.rows(12, 3072);
  const int chip_index =
      static_cast<int>(ctx.cli().get_int("--chip", 1));  // paper cites Chip 1
  auto& chip = ctx.platform().chip(chip_index);
  const auto& map = ctx.map_of(chip_index);
  const auto channels = ctx.channels(4);

  bench::CampaignObservability obs(ctx.cli());
  auto config = bench::campaign_config(
      ctx.cli(), {"channel", "pattern", "row", "hc_first"});
  obs.attach(config);
  runner::CampaignRunner campaign(chip, config);
  std::vector<runner::CampaignRunner::Trial> trials;
  for (int ch : channels) {
    for (auto pattern : study::kAllPatterns) {
      for (int row : study::spread_rows(n_rows)) {
        study::HcSearchConfig config;
        config.pattern = pattern;
        const std::string pattern_name = study::to_string(pattern);
        trials.push_back(
            {"ch" + std::to_string(ch) + ":" + pattern_name + ":row" +
                 std::to_string(row),
             [&map, ch, pattern_name, row, config](
                 bender::ChipSession& session) -> std::vector<std::string> {
               const auto hc = study::find_hc_first(session, map,
                                                    {{ch, 0, 0}, row}, config);
               return {std::to_string(ch), pattern_name, std::to_string(row),
                       hc ? std::to_string(*hc) : ""};
             }});
      }
    }
  }
  const auto report = bench::run_campaign_or_die(ctx, campaign, trials);

  // Aggregate the committed results (freshly measured and resumed alike).
  util::Table table({"Channel", "Pattern", "min HC_first", "median", "mean"});
  std::vector<double> rs0_medians, rs1_medians;
  for (int ch : channels) {
    for (auto pattern : study::kAllPatterns) {
      const std::string pattern_name = study::to_string(pattern);
      std::vector<double> hcs;
      for (const auto& record : report.records) {
        if (record.cells.size() != 4) continue;  // quarantined/not-run
        if (record.cells[0] != std::to_string(ch) ||
            record.cells[1] != pattern_name || record.cells[3].empty()) {
          continue;
        }
        // Resumed checkpoints can surface damaged payload cells; skip
        // them rather than letting std::stod throw out of the analysis.
        if (const auto hc = util::parse_double(record.cells[3])) {
          hcs.push_back(*hc);
        } else if (obs.metrics() != nullptr) {
          obs.metrics()->add("bench.skipped_records", 1);
        }
      }
      if (hcs.empty()) continue;
      table.row()
          .cell("CH" + std::to_string(ch))
          .cell(pattern_name)
          .cell(util::min_of(hcs), 0)
          .cell(util::median(hcs), 0)
          .cell(util::mean(hcs), 0);
      if (pattern == study::DataPattern::kRowstripe0) {
        rs0_medians.push_back(util::median(hcs));
      }
      if (pattern == study::DataPattern::kRowstripe1) {
        rs1_medians.push_back(util::median(hcs));
      }
    }
  }
  table.print(std::cout);
  bench::print_campaign_report(std::cout, report,
                               campaign.session().stats());
  if (report.aborted) return 2;

  ctx.banner("Paper reference points (Obsv. 12-13, Takeaway 3)");
  if (!rs0_medians.empty() && !rs1_medians.empty()) {
    ctx.compare("median HC_first Rowstripe0 vs Rowstripe1 (CH0 of Chip 1)",
                "103905 vs 75990",
                util::format_double(rs0_medians.front(), 0) + " vs " +
                    util::format_double(rs1_medians.front(), 0));
  }
  ctx.compare("channels with more small-HC_first rows also show higher BER",
              "CH3/CH4 of Chip 1", "cross-check with fig06 output");
  obs.finish();
  return 0;
}
