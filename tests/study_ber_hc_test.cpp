#include <gtest/gtest.h>

#include "bender/platform.h"
#include "study/ber.h"
#include "study/hc_first.h"
#include "study/hcn.h"
#include "study/row_selection.h"

namespace hbmrd::study {
namespace {

/// Number of bitflips one from-scratch measurement at `hammer_count`
/// induces in the victim row.
int bitflips_at(bender::ChipSession& chip, const AddressMap& map,
                const dram::RowAddress& victim, std::uint64_t hammer_count,
                const HcSearchConfig& config) {
  BerConfig ber_config = ber_config_of(config);
  ber_config.hammer_count = hammer_count;
  return measure_row_ber(chip, map, victim, ber_config).bitflips;
}

struct StudyFixture : ::testing::Test {
  bender::Platform platform;
  bender::HbmChip& chip = platform.chip(2);  // identity mapping
  AddressMap map = AddressMap::from_scheme(chip.profile().mapping);
  dram::BankAddress bank{0, 0, 0};
  dram::RowAddress victim{bank, 4300};
};

TEST_F(StudyFixture, BerIsReproducibleAndBounded) {
  BerConfig config;
  const auto a = measure_row_ber(chip, map, victim, config);
  const auto b = measure_row_ber(chip, map, victim, config);
  EXPECT_EQ(a.bitflips, b.bitflips);
  EXPECT_EQ(a.flipped_bits, b.flipped_bits);
  EXPECT_GE(a.ber, 0.0);
  EXPECT_LE(a.ber, 1.0);
  EXPECT_EQ(a.bitflips, static_cast<int>(a.flipped_bits.size()));
  EXPECT_DOUBLE_EQ(a.ber, a.bitflips / 8192.0);
}

TEST_F(StudyFixture, BerMonotoneInHammerCount) {
  BerConfig low;
  low.hammer_count = 64 * 1024;
  BerConfig high;
  high.hammer_count = 512 * 1024;
  EXPECT_LE(measure_row_ber(chip, map, victim, low).bitflips,
            measure_row_ber(chip, map, victim, high).bitflips);
}

TEST_F(StudyFixture, HcFirstIsExactBoundary) {
  HcSearchConfig config;
  const auto hc = find_hc_first(chip, map, victim, config);
  ASSERT_TRUE(hc.has_value());
  EXPECT_GT(*hc, 1000u);
  // The chip's temperature drifts slightly between measurements (sensor
  // noise + ambient drift), so the boundary is exact only up to a small
  // dose perturbation; 2% margins dwarf the drift.
  EXPECT_GE(bitflips_at(chip, map, victim, *hc * 102 / 100, config), 1);
  EXPECT_EQ(bitflips_at(chip, map, victim, *hc * 98 / 100, config), 0);
}

TEST_F(StudyFixture, HcFirstRespectsSearchBound) {
  HcSearchConfig config;
  config.max_hammer_count = 2000;  // far below any real HC_first here
  EXPECT_FALSE(find_hc_first(chip, map, victim, config).has_value());
}

TEST_F(StudyFixture, HcnSequenceIsMonotoneAndNormalized) {
  HcSearchConfig config;
  const auto result = measure_hcn(chip, map, victim, config);
  ASSERT_TRUE(result.complete());
  for (int k = 1; k < kHcnFlips; ++k) {
    EXPECT_GE(*result.hc[static_cast<std::size_t>(k)],
              *result.hc[static_cast<std::size_t>(k - 1)]);
  }
  EXPECT_DOUBLE_EQ(result.normalized(0), 1.0);
  EXPECT_GE(result.normalized(kHcnFlips - 1), 1.0);
  EXPECT_EQ(result.additional_to_tenth(),
            *result.hc[9] - *result.hc[0]);
  // HC_nth found independently agrees with the incremental search up to
  // the thermal measurement drift (see HcFirstIsExactBoundary).
  const auto hc4 = find_hc_nth(chip, map, victim, 4, config);
  ASSERT_TRUE(hc4.has_value());
  EXPECT_NEAR(static_cast<double>(*hc4),
              static_cast<double>(*result.hc[3]),
              0.01 * static_cast<double>(*result.hc[3]));
}

TEST_F(StudyFixture, MeasureBankBerCoversRequestedRows) {
  BerConfig config;
  config.hammer_count = 32 * 1024;  // cheap sweep
  const std::vector<int> rows = {100, 200, 300};
  const auto results = measure_bank_ber(chip, map, bank, rows, config);
  ASSERT_EQ(results.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(results[i].victim.row, rows[i]);
  }
}

TEST_F(StudyFixture, PatternsChangeTheBitflipPicture) {
  // Obsv. 13: Rowstripe0 (victim all-0) and Rowstripe1 (victim all-1)
  // expose different cell populations; with a 58/42 true/anti cell split
  // Rowstripe1 must flip more at a high hammer count. Aggregated over
  // several rows because the per-row orientation draw is binomial.
  BerConfig rs0;
  rs0.pattern = DataPattern::kRowstripe0;
  rs0.hammer_count = 512 * 1024;
  BerConfig rs1 = rs0;
  rs1.pattern = DataPattern::kRowstripe1;
  int flips_rs0 = 0;
  int flips_rs1 = 0;
  for (int row = 4300; row < 4310; ++row) {
    flips_rs0 += measure_row_ber(chip, map, {bank, row}, rs0).bitflips;
    flips_rs1 += measure_row_ber(chip, map, {bank, row}, rs1).bitflips;
  }
  EXPECT_GT(flips_rs1, flips_rs0 * 11 / 10);
}

TEST_F(StudyFixture, EdgeVictimUsesSingleAggressor) {
  BerConfig config;
  const dram::RowAddress edge{bank, 0};
  // Must run without throwing despite having only one physical neighbour.
  const auto result = measure_row_ber(chip, map, edge, config);
  EXPECT_GE(result.bitflips, 0);
}

TEST(RowSelection, MatchesPaperSampling) {
  EXPECT_EQ(first_rows(3), (std::vector<int>{0, 1, 2}));
  const auto last = last_rows(2);
  EXPECT_EQ(last, (std::vector<int>{16382, 16383}));
  const auto middle = middle_rows(2);
  EXPECT_EQ(middle, (std::vector<int>{8191, 8192}));
  EXPECT_EQ(begin_middle_end_rows(32).size(), 96u);
  const auto spread = spread_rows(4);
  EXPECT_EQ(spread, (std::vector<int>{0, 4096, 8192, 12288}));
  EXPECT_TRUE(spread_rows(0).empty());
  EXPECT_EQ(spread_rows(100000).size(),
            static_cast<std::size_t>(dram::kRowsPerBank));
}

}  // namespace
}  // namespace hbmrd::study
