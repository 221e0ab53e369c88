// Fig. 8 (Sec. 4.2): BER for each row across a bank (WCDP), exposing the
// subarray structure: BER rises mid-subarray and collapses in the middle
// and last 832-row subarrays (Obsv. 14-15, Takeaway 4). Also reproduces
// footnote 3's single-sided boundary reverse engineering.
#include "common.h"
#include "study/ber.h"
#include "study/subarray_re.h"

int main(int argc, char** argv) {
  using namespace hbmrd;
  bench::BenchContext ctx(argc, argv, "Fig. 8: BER across a bank's rows",
                          {bench::kCsvFlags,
                           {{"--stride", util::FlagKind::kInt,
                             "row sampling stride (default 24; --full: 1)"}}});
  const int chip_index = static_cast<int>(ctx.cli().get_int("--chip", 0));
  auto& chip = ctx.platform().chip(chip_index);
  const auto& map = ctx.map_of(chip_index);
  const auto channels = ctx.channels(ctx.full() ? 3 : 2);
  // Row stride: every row at paper scale, sampled otherwise.
  const int stride =
      ctx.full() ? 1 : static_cast<int>(ctx.cli().get_int("--stride", 24));
  const dram::BankAddress bank{channels.front(), 0, 0};

  ctx.banner("Subarray boundary reverse engineering (footnote 3)");
  const auto layout = study::find_subarray_layout(chip, map, bank);
  std::cout << "  recovered " << layout.count() << " subarrays; sizes:";
  for (int s = 0; s < layout.count(); ++s) {
    std::cout << " " << layout.size_of(s);
  }
  std::cout << "\n";
  ctx.compare("subarray sizes", "832 or 768 rows", "list above");

  ctx.banner("Per-subarray BER (WCDP = Checkered0 here)");
  util::Table table({"Subarray", "rows", "resilient?", "mean BER (by ch)",
                     "edge-vs-mid"});
  auto csv = ctx.csv("fig08_ber_rows",
                     {"channel", "physical_row", "subarray", "ber"});
  study::BerConfig config;
  config.pattern = study::DataPattern::kCheckered0;
  for (int s = 0; s < layout.count(); ++s) {
    const int start = layout.starts[static_cast<std::size_t>(s)];
    const int size = layout.size_of(s);
    std::string per_channel;
    double edge_sum = 0, mid_sum = 0;
    int edge_n = 0, mid_n = 0;
    for (int ch : channels) {
      std::vector<double> bers;
      for (int pos = 2; pos < size - 2; pos += stride) {
        const int physical = start + pos;
        const int logical = map.to_logical(physical);
        const double ber =
            study::measure_row_ber(chip, map, {{ch, 0, 0}, logical}, config)
                .ber;
        bers.push_back(ber);
        if (csv) csv->add().cell(ch).cell(physical).cell(s).cell(ber);
        if (pos < size / 5 || pos > 4 * size / 5) {
          edge_sum += ber;
          ++edge_n;
        } else if (pos > 2 * size / 5 && pos < 3 * size / 5) {
          mid_sum += ber;
          ++mid_n;
        }
      }
      if (!per_channel.empty()) per_channel += " / ";
      per_channel += bench::ber_pct(util::mean(bers));
    }
    const bool resilient = dram::is_resilient_subarray(s);
    std::string shape = "-";
    if (edge_n > 0 && mid_n > 0 && edge_sum > 0) {
      shape = "mid/edge " +
              util::format_double((mid_sum / mid_n) /
                                      std::max(edge_sum / edge_n, 1e-9),
                                  2) +
              "x";
    }
    table.row()
        .cell(s)
        .cell(std::to_string(start) + ".." + std::to_string(start + size - 1))
        .cell(resilient ? "yes" : "no")
        .cell(per_channel)
        .cell(shape);
  }
  table.print(std::cout);

  ctx.banner("Paper reference points (Obsv. 14-15)");
  ctx.compare("BER peaks mid-subarray", "periodic rise/fall across rows",
              "mid/edge ratios > 1 above");
  ctx.compare("middle + last 832-row subarrays are resilient",
              "significantly lower BER",
              "compare 'resilient? yes' rows to the rest");
  return 0;
}
