// Ablation: the sparse outlier defect population (DESIGN.md Sec. 4).
// Obsv. 20's negative correlation between HC_first and the additional
// hammers to the 10th flip requires (a) a deep, spatially uniform outlier
// tail that dominates HC_first variation, while (b) the ordinary weak
// population supplies the 2nd..10th flips at fairly stable doses, and
// (c) a narrow cross-row spread of the weak-population sigma (a wide
// spread injects a positively correlated scale term).
#include "common.h"

#include "study/hcn.h"

namespace {

hbmrd::dram::ChipProfile custom_profile(double outlier_fraction,
                                        double sigma_lo, double sigma_hi) {
  auto profile = hbmrd::dram::chip_profiles()[2];  // identity mapping
  profile.disturb.outlier_fraction = outlier_fraction;
  profile.disturb.sigma_cell_min = sigma_lo;
  profile.disturb.sigma_cell_max = sigma_hi;
  return profile;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hbmrd;
  bench::BenchContext ctx(argc, argv,
                          "Ablation: outlier defect tail (Obsv. 20)");
  const int n_rows = ctx.rows(40, 160);

  util::Table table({"Variant", "Pearson(HC_first, add. HC)",
                     "mean HC_10th/HC_first", "min/median HC_first"});
  struct Variant {
    std::string name;
    double outlier_fraction, sigma_lo, sigma_hi;
  };
  const Variant variants[] = {
      {"default", 0.008, 0.45, 0.55},
      {"no outlier tail", 0.0, 0.45, 0.55},
      {"wide weak-sigma spread", 0.008, 0.30, 0.80},
  };
  for (const auto& variant : variants) {
    bender::HbmChip chip(custom_profile(variant.outlier_fraction,
                                        variant.sigma_lo, variant.sigma_hi));
    const auto map = study::AddressMap::from_scheme(chip.profile().mapping);
    study::HcSearchConfig config;
    std::vector<double> hc_firsts, additional, norm10;
    // Homogeneous sampling (consecutive rows of one regular subarray),
    // isolating the statistical effect from spatial stratification.
    for (int ch : {0, 1}) {
      for (int row = 4100; row < 4100 + n_rows; ++row) {
        const auto result =
            study::measure_hcn(chip, map, {{ch, 0, 0}, row}, config);
        if (!result.complete()) continue;
        hc_firsts.push_back(static_cast<double>(*result.hc[0]));
        additional.push_back(
            static_cast<double>(result.additional_to_tenth()));
        norm10.push_back(result.normalized(9));
      }
    }
    table.row()
        .cell(variant.name)
        .cell(util::pearson(hc_firsts, additional), 3)
        .cell(util::mean(norm10), 2)
        .cell(util::format_double(util::min_of(hc_firsts), 0) + " / " +
              util::format_double(util::median(hc_firsts), 0));
  }
  table.print(std::cout);

  ctx.banner("Reading");
  std::cout
      << "Paper (Obsv. 20): Pearson -0.34 .. -0.45. The narrow weak-sigma\n"
         "spread preserves the negative order-statistics correlation —\n"
         "widening it to [0.30, 0.80] collapses the correlation to ~0 by\n"
         "injecting a positively correlated scale term. The outlier tail\n"
         "deepens and widens the HC_first distribution toward the paper's\n"
         "minima (compare the min/median column) and strengthens the\n"
         "negative correlation further.\n";
  return 0;
}
