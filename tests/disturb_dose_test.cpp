#include "disturb/dose.h"

#include <gtest/gtest.h>

#include <memory>

namespace hbmrd::disturb {
namespace {

TEST(DoseLedger, StartsEmpty) {
  DoseLedger ledger;
  EXPECT_TRUE(ledger.empty());
  EXPECT_EQ(ledger.adjacent_dose(), 0.0);
  EXPECT_TRUE(ledger.epochs().empty());
}

TEST(DoseLedger, MergesSameDistanceVersionAndUnit) {
  DoseLedger ledger;
  const auto bits = std::make_shared<dram::RowBits>(
      dram::RowBits::filled(0xAA));
  ledger.add(1, 7, bits, 10.0);
  ledger.add(1, 7, bits, 10.0, 4);
  ASSERT_EQ(ledger.epochs().size(), 1u);
  EXPECT_EQ(ledger.epochs()[0].count, 5u);
  EXPECT_DOUBLE_EQ(ledger.epochs()[0].dose(), 50.0);
  EXPECT_EQ(ledger.epochs()[0].distance, 1);
}

TEST(DoseLedger, SeparatesDistancesVersionsAndUnits) {
  DoseLedger ledger;
  const auto bits = std::make_shared<dram::RowBits>(
      dram::RowBits::filled(0xAA));
  ledger.add(1, 7, bits, 10.0);
  ledger.add(-1, 7, bits, 4.0);
  ledger.add(1, 8, bits, 2.0);   // content changed: new epoch
  ledger.add(1, 7, bits, 2.5);   // different unit dose: new epoch
  EXPECT_EQ(ledger.epochs().size(), 4u);
  EXPECT_DOUBLE_EQ(ledger.adjacent_dose(), 18.5);
}

TEST(DoseLedger, SplitAccumulationIsExactlyAssociative) {
  // The incremental HC search hammers a count in several delta windows;
  // the resulting epoch must equal one window of the summed count exactly
  // (integer count addition, no floating-point re-association).
  const auto bits = std::make_shared<dram::RowBits>(
      dram::RowBits::filled(0x0F));
  const double unit = 0.3;  // not exactly representable
  DoseLedger split;
  split.add(1, 1, bits, unit, 7);
  split.add(1, 1, bits, unit, 93);
  split.add(1, 1, bits, unit, 900);
  DoseLedger whole;
  whole.add(1, 1, bits, unit, 1000);
  ASSERT_EQ(split.epochs().size(), 1u);
  EXPECT_EQ(split.epochs()[0].count, whole.epochs()[0].count);
  EXPECT_EQ(split.epochs()[0].dose(), whole.epochs()[0].dose());
}

TEST(DoseLedger, MergesWithEarlierEpochAfterInterleaving) {
  // The hammer pattern A B A B ... must not grow the epoch list.
  DoseLedger ledger;
  const auto bits_a = std::make_shared<dram::RowBits>(
      dram::RowBits::filled(0xAA));
  const auto bits_b = std::make_shared<dram::RowBits>(
      dram::RowBits::filled(0x55));
  for (int i = 0; i < 100; ++i) {
    ledger.add(1, 1, bits_a, 1.0);
    ledger.add(-1, 2, bits_b, 1.0);
  }
  ASSERT_EQ(ledger.epochs().size(), 2u);
  EXPECT_DOUBLE_EQ(ledger.epochs()[0].dose(), 100.0);
  EXPECT_DOUBLE_EQ(ledger.epochs()[1].dose(), 100.0);
}

TEST(DoseLedger, AdjacentDoseIgnoresBlastRadius) {
  DoseLedger ledger;
  const auto bits = std::make_shared<dram::RowBits>(
      dram::RowBits::filled(0x00));
  ledger.add(2, 1, bits, 50.0);
  ledger.add(-2, 1, bits, 50.0);
  EXPECT_DOUBLE_EQ(ledger.adjacent_dose(), 0.0);
  ledger.add(-1, 1, bits, 3.0);
  EXPECT_DOUBLE_EQ(ledger.adjacent_dose(), 3.0);
}

TEST(DoseLedger, ClearResets) {
  DoseLedger ledger;
  ledger.add(1, 1, nullptr, 1.0);
  EXPECT_FALSE(ledger.empty());
  ledger.clear();
  EXPECT_TRUE(ledger.empty());
  EXPECT_EQ(ledger.epochs().size(), 0u);
}

TEST(DoseLedger, EpochKeepsAggressorSnapshot) {
  // The epoch shares the caller's immutable contents instead of copying
  // them; merged activations keep the first epoch's snapshot.
  DoseLedger ledger;
  const auto bits = std::make_shared<dram::RowBits>(
      dram::RowBits::filled(0xFF));
  ledger.add(1, 1, bits, 1.0);
  ledger.add(1, 1, nullptr, 1.0);
  ASSERT_EQ(ledger.epochs().size(), 1u);
  EXPECT_EQ(ledger.epochs()[0].aggressor_bits, bits);
  EXPECT_TRUE(ledger.epochs()[0].aggressor_bits->get(0));
}

TEST(DoseLedger, MergingAddTouchesNoRefcount) {
  // The add takes the aggressor row's own handle type, so no temporary
  // handle is built: a merge leaves the count alone and an add that opens
  // an epoch copies the handle exactly once.
  DoseLedger ledger;
  const auto bits = std::make_shared<dram::RowBits>(
      dram::RowBits::filled(0x3C));
  ledger.add(1, 1, bits, 1.0);
  ASSERT_EQ(bits.use_count(), 2);
  for (int i = 0; i < 10; ++i) {
    ledger.add(1, 1, bits, 1.0);
    EXPECT_EQ(bits.use_count(), 2);
  }
  ledger.add(-1, 1, bits, 1.0);  // another distance: one more epoch
  EXPECT_EQ(bits.use_count(), 3);
  ledger.add(-1, 1, bits, 1.0, 5);
  EXPECT_EQ(bits.use_count(), 3);
  ASSERT_EQ(ledger.epochs().size(), 2u);
  EXPECT_EQ(ledger.epochs()[0].count, 11u);
  EXPECT_EQ(ledger.epochs()[1].count, 6u);
  ledger.clear();
  EXPECT_EQ(bits.use_count(), 1);
}

}  // namespace
}  // namespace hbmrd::disturb
