#include "dram/geometry.h"

#include <gtest/gtest.h>

namespace hbmrd::dram {
namespace {

TEST(Geometry, PaperConfiguration) {
  // Sec. 3: 8 channels, 2 pseudo channels, 16 banks, 16384 rows, 1 KB rows.
  EXPECT_EQ(kChannels, 8);
  EXPECT_EQ(kPseudoChannels, 2);
  EXPECT_EQ(kBanksPerPseudoChannel, 16);
  EXPECT_EQ(kRowsPerBank, 16384);
  EXPECT_EQ(kRowBits, 8192);
  // Stack density: 4 GiB.
  const long long bits = 8LL * 2 * 16 * 16384 * 8192;
  EXPECT_EQ(bits, 4LL * 1024 * 1024 * 1024 * 8);
}

TEST(Geometry, DieGrouping) {
  EXPECT_EQ(die_of_channel(0), 0);
  EXPECT_EQ(die_of_channel(1), 0);
  EXPECT_EQ(die_of_channel(2), 1);
  EXPECT_EQ(die_of_channel(7), 3);
}

TEST(Geometry, ValidateRejectsOutOfRange) {
  EXPECT_NO_THROW(validate(BankAddress{7, 1, 15}));
  EXPECT_THROW(validate(BankAddress{8, 0, 0}), std::out_of_range);
  EXPECT_THROW(validate(BankAddress{0, 2, 0}), std::out_of_range);
  EXPECT_THROW(validate(BankAddress{0, 0, 16}), std::out_of_range);
  EXPECT_THROW(validate(BankAddress{-1, 0, 0}), std::out_of_range);
  EXPECT_THROW(validate(RowAddress{{0, 0, 0}, 16384}), std::out_of_range);
  EXPECT_THROW(validate(RowAddress{{0, 0, 0}, -1}), std::out_of_range);
  EXPECT_NO_THROW(validate(RowAddress{{0, 0, 0}, 16383}));
}

TEST(Geometry, FlatBankIndexIsChannelMajor) {
  std::size_t expected = 0;
  for (int ch = 0; ch < kChannels; ++ch) {
    EXPECT_EQ(channel_first_bank(ch), expected);
    for (int pc = 0; pc < kPseudoChannels; ++pc) {
      for (int b = 0; b < kBanksPerPseudoChannel; ++b) {
        EXPECT_EQ(flat_bank_index({ch, pc, b}), expected++);
      }
    }
  }
  EXPECT_EQ(expected, static_cast<std::size_t>(kBanks));
  EXPECT_EQ(kBanksPerChannel, kPseudoChannels * kBanksPerPseudoChannel);
}

TEST(Subarrays, SizesCoverTheBank) {
  int total = 0;
  int large = 0;
  for (int s = 0; s < kSubarrays; ++s) {
    const int size = subarray_size(s);
    EXPECT_TRUE(size == kSubarraySizeLarge || size == kSubarraySizeSmall);
    if (size == kSubarraySizeLarge) ++large;
    total += size;
  }
  EXPECT_EQ(total, kRowsPerBank);
  EXPECT_EQ(large, 4);  // 4 x 832 + 17 x 768 = 16384
}

TEST(Subarrays, MiddleAndLastAreResilient832Rows) {
  // Obsv. 15: the middle and last 832 rows are the resilient subarrays.
  EXPECT_EQ(subarray_size(kMiddleSubarray), 832);
  EXPECT_EQ(subarray_size(kLastSubarray), 832);
  EXPECT_TRUE(is_resilient_subarray(kMiddleSubarray));
  EXPECT_TRUE(is_resilient_subarray(kLastSubarray));
  EXPECT_FALSE(is_resilient_subarray(0));
  // The middle subarray straddles the bank's midpoint.
  const int mid_start = subarray_start(kMiddleSubarray);
  EXPECT_LE(mid_start, kRowsPerBank / 2);
  EXPECT_GT(mid_start + subarray_size(kMiddleSubarray), kRowsPerBank / 2);
  // The last subarray ends the bank.
  EXPECT_EQ(subarray_start(kLastSubarray) + subarray_size(kLastSubarray),
            kRowsPerBank);
}

TEST(Subarrays, RowLookupsAreConsistent) {
  for (int s = 0; s < kSubarrays; ++s) {
    const int start = subarray_start(s);
    EXPECT_EQ(subarray_of_row(start), s);
    EXPECT_EQ(position_in_subarray(start), 0);
    const int end = start + subarray_size(s) - 1;
    EXPECT_EQ(subarray_of_row(end), s);
    EXPECT_EQ(position_in_subarray(end), subarray_size(s) - 1);
  }
  EXPECT_EQ(subarray_of_row(kRowsPerBank - 1), kSubarrays - 1);
}

/// The subarray walk the lookup table replaced: the oracle for the table.
int subarray_by_scan(int physical_row) {
  int start = 0;
  for (int s = 0; s < kSubarrays; ++s) {
    start += subarray_size(s);
    if (physical_row < start) return s;
  }
  return kSubarrays - 1;
}

TEST(Subarrays, RowTableMatchesTheScan) {
  for (int row = -3; row < kRowsPerBank + 3; ++row) {
    ASSERT_EQ(subarray_of_row(row), subarray_by_scan(row)) << "row " << row;
  }
  // Out-of-range rows clamp to the first and the last subarray.
  EXPECT_EQ(subarray_of_row(-1), 0);
  EXPECT_EQ(subarray_of_row(kRowsPerBank), kSubarrays - 1);
  static_assert(subarray_of_row(subarray_start(kMiddleSubarray)) ==
                kMiddleSubarray);
}

TEST(Subarrays, SameSubarrayAtBoundaries) {
  const int boundary = subarray_start(1);
  EXPECT_FALSE(same_subarray(boundary - 1, boundary));
  EXPECT_TRUE(same_subarray(boundary, boundary + 1));
  EXPECT_TRUE(same_subarray(0, subarray_size(0) - 1));
}

}  // namespace
}  // namespace hbmrd::dram
