#include "study/bypass.h"

#include <gtest/gtest.h>

#include "bender/platform.h"

namespace hbmrd::study {
namespace {

TEST(BypassPlan, SplitsTheActivationBudget) {
  const dram::TimingParams timing;
  BypassConfig config;
  config.dummy_rows = 4;
  config.aggressor_acts = 18;
  const auto plan = plan_bypass(timing, config);
  EXPECT_EQ(plan.total_budget, 78);
  EXPECT_EQ(plan.aggressor_acts_total, 36);
  EXPECT_EQ(plan.dummy_acts_total, 42);
  // Paper: floor((78 - 18 * 2) / 4) = 10 activations per dummy row.
  EXPECT_EQ(plan.acts_per_dummy, 10);
}

TEST(BypassPlan, RejectsOverBudgetConfigs) {
  const dram::TimingParams timing;
  BypassConfig config;
  config.aggressor_acts = 39;  // 78 activations: no dummy budget left
  EXPECT_THROW((void)plan_bypass(timing, config), std::invalid_argument);
  config.aggressor_acts = 18;
  config.dummy_rows = 0;
  EXPECT_THROW((void)plan_bypass(timing, config), std::invalid_argument);
}

struct BypassFixture : ::testing::Test {
  bender::Platform platform;
  bender::HbmChip& chip = platform.chip(0);  // the TRR-protected chip
  AddressMap map = AddressMap::from_scheme(chip.profile().mapping);
  dram::RowAddress victim{{0, 0, 0}, 4301};
};

TEST_F(BypassFixture, FourDummiesBypassTheTrr) {
  BypassConfig config;
  config.dummy_rows = 4;
  config.aggressor_acts = 34;
  config.windows = 8205;  // one refresh window keeps the test fast
  const auto result = run_bypass_attack(chip, map, victim, config);
  EXPECT_GT(result.bitflips, 0);
}

TEST_F(BypassFixture, ThreeDummiesAreNeutralized) {
  BypassConfig config;
  config.dummy_rows = 3;
  config.aggressor_acts = 34;
  config.windows = 8205;
  const auto result = run_bypass_attack(chip, map, victim, config);
  EXPECT_EQ(result.bitflips, 0);
}

TEST_F(BypassFixture, MoreAggressorActsMoreBitflips) {
  BypassConfig low;
  low.dummy_rows = 8;
  low.aggressor_acts = 18;
  low.windows = 8205;
  BypassConfig high = low;
  high.aggressor_acts = 34;
  const auto weak = run_bypass_attack(chip, map, victim, low);
  const auto strong = run_bypass_attack(chip, map, victim, high);
  EXPECT_LE(weak.bitflips, strong.bitflips);
  EXPECT_GT(strong.bitflips, 0);
}

TEST_F(BypassFixture, UnprotectedChipFlipsEvenWithFewDummies) {
  auto& open_chip = platform.chip(2);
  const auto open_map =
      AddressMap::from_scheme(open_chip.profile().mapping);
  BypassConfig config;
  config.dummy_rows = 2;  // would fail against the TRR
  config.aggressor_acts = 34;
  config.windows = 8205;
  const auto result =
      run_bypass_attack(open_chip, open_map, victim, config);
  EXPECT_GT(result.bitflips, 0);
}

TEST_F(BypassFixture, EdgeVictimRejected) {
  BypassConfig config;
  EXPECT_THROW((void)run_bypass_attack(chip, map,
                                       dram::RowAddress{{0, 0, 0}, 0}, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace hbmrd::study
