// HBM2 stack geometry, strong address types, and the subarray layout.
//
// All tested chips in the paper share the same organization (Sec. 3):
//   4 GiB stack, 8 channels, 2 pseudo channels/channel, 16 banks/pseudo
//   channel, 16384 rows/bank, 1 KiB (8192 bits) per row.
//
// Channels are paired onto 3D-stacked dies (Sec. 4.2 observes channel pairs
// with matching vulnerability, hypothesized to share a die), which the fault
// model uses for its die-level process-variation factor.
#pragma once

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

namespace hbmrd::dram {

inline constexpr int kChannels = 8;
inline constexpr int kPseudoChannels = 2;
inline constexpr int kBanksPerPseudoChannel = 16;
inline constexpr int kRowsPerBank = 16384;
inline constexpr int kRowBits = 8192;  // 1 KiB per row
inline constexpr int kColumns = 32;    // 32 columns x 256 bits = 8192 bits
inline constexpr int kBitsPerColumn = kRowBits / kColumns;
inline constexpr int kChannelsPerDie = 2;  // channel pairs share a die
inline constexpr int kDies = kChannels / kChannelsPerDie;

static_assert(kColumns * kBitsPerColumn == kRowBits);

/// Identifies one bank within a stack.
struct BankAddress {
  int channel = 0;
  int pseudo_channel = 0;
  int bank = 0;

  friend auto operator<=>(const BankAddress&, const BankAddress&) = default;
};

/// Identifies one row within a stack. `row` is a *logical* (memory-controller
/// visible) row index; the device internally remaps it to a physical row.
struct RowAddress {
  BankAddress bank;
  int row = 0;

  friend auto operator<=>(const RowAddress&, const RowAddress&) = default;
};

/// Throws std::out_of_range if the address does not exist in the geometry.
void validate(const BankAddress& addr);
void validate(const RowAddress& addr);

inline constexpr int kBanksPerChannel =
    kPseudoChannels * kBanksPerPseudoChannel;
inline constexpr int kBanks = kChannels * kBanksPerChannel;

/// Per-bank tables are channel-major: a channel's kBanksPerChannel banks
/// are contiguous from channel_first_bank(channel).
[[nodiscard]] constexpr std::size_t channel_first_bank(int channel) noexcept {
  return static_cast<std::size_t>(channel) * kBanksPerChannel;
}

/// Index of a valid bank in a per-bank table, in [0, kBanks).
[[nodiscard]] constexpr std::size_t flat_bank_index(
    const BankAddress& addr) noexcept {
  return channel_first_bank(addr.channel) +
         static_cast<std::size_t>(addr.pseudo_channel) *
             kBanksPerPseudoChannel +
         static_cast<std::size_t>(addr.bank);
}

/// The die a channel is stacked on (channel pairs share a die).
[[nodiscard]] constexpr int die_of_channel(int channel) noexcept {
  return channel / kChannelsPerDie;
}

// ---------------------------------------------------------------------------
// Subarray layout (Sec. 4.2, Fig. 8).
//
// Reverse engineering in the paper finds subarrays of either 832 or 768 rows,
// and observes that the *middle* and the *last* 832 rows of a bank are
// significantly more RowHammer-resilient. We lay out each bank as 21
// subarrays (4 x 832 + 17 x 768 = 16384 rows), arranged so that an 832-row
// subarray covers the middle of the bank and another ends the bank:
//
//   index : 0    1..9     10   11..18   19   20
//   rows  : 832  9 x 768  832  8 x 768  832  832
//
// Subarrays 10 (middle) and 20 (last) are the resilient ones.
// ---------------------------------------------------------------------------

inline constexpr int kSubarrays = 21;
inline constexpr int kSubarraySizeLarge = 832;
inline constexpr int kSubarraySizeSmall = 768;
inline constexpr int kMiddleSubarray = 10;
inline constexpr int kLastSubarray = 20;

[[nodiscard]] constexpr int subarray_size(int subarray) {
  if (subarray == 0 || subarray == 10 || subarray == 19 || subarray == 20) {
    return kSubarraySizeLarge;
  }
  return kSubarraySizeSmall;
}

/// First physical row of the given subarray.
[[nodiscard]] constexpr int subarray_start(int subarray) {
  int start = 0;
  for (int s = 0; s < subarray; ++s) start += subarray_size(s);
  return start;
}

static_assert(subarray_start(kSubarrays - 1) +
                  subarray_size(kSubarrays - 1) ==
              kRowsPerBank);

namespace detail {
/// Subarray of every physical row, built once at compile time.
inline constexpr auto kSubarrayOfRow = [] {
  std::array<std::int8_t, kRowsPerBank> table{};
  int subarray = 0;
  int end = subarray_size(0);
  for (int row = 0; row < kRowsPerBank; ++row) {
    if (row == end) end += subarray_size(++subarray);
    table[static_cast<std::size_t>(row)] =
        static_cast<std::int8_t>(subarray);
  }
  return table;
}();
}  // namespace detail

/// Subarray index that contains a physical row. Rows below the bank map to
/// the first subarray, rows beyond it to the last.
[[nodiscard]] constexpr int subarray_of_row(int physical_row) {
  if (physical_row < 0) return 0;
  if (physical_row >= kRowsPerBank) return kSubarrays - 1;
  return detail::kSubarrayOfRow[static_cast<std::size_t>(physical_row)];
}

/// Row position inside its subarray, in [0, subarray_size).
[[nodiscard]] constexpr int position_in_subarray(int physical_row) {
  return physical_row - subarray_start(subarray_of_row(physical_row));
}

/// The middle and the last subarray are the RowHammer-resilient ones
/// (paper Obsv. 15 / Takeaway 4).
[[nodiscard]] constexpr bool is_resilient_subarray(int subarray) {
  return subarray == kMiddleSubarray || subarray == kLastSubarray;
}

/// True when two physical rows are in the same subarray of the same bank.
/// Read disturbance does not cross subarray boundaries (separate local
/// bitlines), which is what makes single-sided boundary probing work.
[[nodiscard]] constexpr bool same_subarray(int physical_row_a,
                                           int physical_row_b) {
  return subarray_of_row(physical_row_a) == subarray_of_row(physical_row_b);
}

}  // namespace hbmrd::dram
