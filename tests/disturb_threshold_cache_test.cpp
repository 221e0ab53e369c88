// Threshold cache: senses driven by the cached summaries must be
// bit-identical to the per-cell oracle, and the summary's sorted head must
// agree with the fault model's per-cell thresholds (HC_first = weakest
// cell).
#include "disturb/threshold_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <memory>

#include "dram/chip_profiles.h"
#include "dram/stack.h"
#include "sense_oracle.h"

namespace hbmrd::disturb {
namespace {

dram::StackConfig cache_config(std::shared_ptr<ThresholdCache> cache) {
  dram::StackConfig config;
  config.disturb = dram::chip_profiles()[2].disturb;
  config.threshold_cache = std::move(cache);
  return config;
}

struct StackFixture {
  explicit StackFixture(std::shared_ptr<ThresholdCache> cache = nullptr)
      : stack(cache_config(std::move(cache))) {}

  dram::Stack stack;
  dram::TimingParams timing{};
  dram::Cycle now = 1000;

  void write_row(const dram::RowAddress& addr, const dram::RowBits& bits) {
    stack.activate(addr, now);
    std::array<std::uint64_t, dram::kWordsPerColumn> column;
    for (int c = 0; c < dram::kColumns; ++c) {
      bits.get_column(c, column);
      stack.write_column(addr.bank, c, column, now + timing.t_rcd + 1);
    }
    now += timing.t_ras + 100;
    stack.precharge(addr.bank, now);
    now += timing.t_rp + 100;
  }

  dram::RowBits read_row(const dram::RowAddress& addr) {
    stack.activate(addr, now);
    dram::RowBits bits;
    std::array<std::uint64_t, dram::kWordsPerColumn> column;
    for (int c = 0; c < dram::kColumns; ++c) {
      stack.read_column(addr.bank, c, column, now + timing.t_rcd + 1);
      bits.set_column(c, column);
    }
    now += timing.t_ras + 100;
    stack.precharge(addr.bank, now);
    now += timing.t_rp + 100;
    return bits;
  }

  /// Double-sided hammer of `victim`'s neighbours.
  void hammer(int victim, std::uint64_t pulses) {
    const dram::BankAddress bank{0, 0, 0};
    write_row({bank, victim}, dram::RowBits::filled(0x55));
    write_row({bank, victim - 1}, dram::RowBits::filled(0xFF));
    write_row({bank, victim + 1}, dram::RowBits::filled(0xFF));
    const std::array<dram::HammerStep, 2> steps = {
        dram::HammerStep{victim - 1, timing.t_ras},
        dram::HammerStep{victim + 1, timing.t_ras}};
    now = stack.bulk_hammer(bank, steps, pulses, now) + 100;
  }

  dram::RowBits hammer_and_sense(int victim, std::uint64_t pulses) {
    hammer(victim, pulses);
    return read_row({{0, 0, 0}, victim});
  }

  /// What the per-cell oracle says a read of `victim` now leaves behind.
  dram::RowBits oracle_sense(int victim) {
    const dram::BankAddress bank{0, 0, 0};
    const int row = stack.mapping().to_physical(victim);
    auto& bk = stack.bank(bank);
    const auto stored = bk.stored_row(row);
    const DoseLedger* ledger = bk.ledger(row);
    EXPECT_TRUE(stored.has_value() && ledger != nullptr);
    if (!stored || ledger == nullptr) return {};
    return oracle::per_cell_sense(
        stack.fault_model(), bank, row, stored->bits, *ledger,
        dram::cycles_to_seconds(now - stored->last_restore),
        stack.temperature());
  }
};

TEST(ThresholdCache, CachedSenseIsBitIdenticalToFullScan) {
  for (const std::uint64_t pulses :
       {std::uint64_t{20000}, std::uint64_t{80000}, std::uint64_t{300000}}) {
    StackFixture cached(std::make_shared<ThresholdCache>());
    cached.hammer(128, pulses);
    const auto expected = cached.oracle_sense(128);
    const auto flips_before =
        cached.stack.total_counters().bitflips_materialized;
    const auto got = cached.read_row({{0, 0, 0}, 128});
    EXPECT_EQ(got.count_diff(expected), 0) << "pulses=" << pulses;
    // The victim held its freshly written pattern until this read.
    EXPECT_EQ(cached.stack.total_counters().bitflips_materialized -
                  flips_before,
              static_cast<std::uint64_t>(
                  got.count_diff(dram::RowBits::filled(0x55))))
        << "pulses=" << pulses;
  }
}

TEST(ThresholdCache, RepeatedSensesHitTheCache) {
  auto cache = std::make_shared<ThresholdCache>();
  StackFixture f(cache);
  (void)f.hammer_and_sense(128, 150000);
  (void)f.hammer_and_sense(128, 150000);
  const auto totals = cache->totals();
  EXPECT_GT(totals.misses, 0u);
  EXPECT_GT(totals.hits, 0u) << "second hammer of the same row must hit";
}

TEST(ThresholdCache, SummarySortedHeadIsTheRowsWeakestCell) {
  const FaultModel model(dram::chip_profiles()[2].disturb);
  const dram::BankAddress bank{0, 0, 0};
  const int row = 200;
  const auto summary = build_row_summary(model, bank, row);

  ASSERT_EQ(summary.cell_u.size(), static_cast<std::size_t>(dram::kRowBits));
  ASSERT_EQ(summary.outlier_by_u.size() + summary.weak_by_u.size() +
                summary.bulk_by_u.size(),
            static_cast<std::size_t>(dram::kRowBits));
  ASSERT_EQ(summary.leaky_by_u.size() + summary.normal_by_u.size(),
            static_cast<std::size_t>(dram::kRowBits));

  // Sorted ascending by uniform within each population.
  const auto sorted = [&](const std::vector<int>& order,
                          const std::vector<double>& u) {
    return std::is_sorted(order.begin(), order.end(), [&](int a, int b) {
      return u[static_cast<std::size_t>(a)] < u[static_cast<std::size_t>(b)];
    });
  };
  EXPECT_TRUE(sorted(summary.outlier_by_u, summary.cell_u));
  EXPECT_TRUE(sorted(summary.weak_by_u, summary.cell_u));
  EXPECT_TRUE(sorted(summary.bulk_by_u, summary.cell_u));
  EXPECT_TRUE(sorted(summary.leaky_by_u, summary.retention_u));
  EXPECT_TRUE(sorted(summary.normal_by_u, summary.retention_u));

  // HC_first: the minimum cell threshold over the whole row is attained at
  // the head of one of the sorted population lists (the threshold is
  // monotone in the uniform within a population).
  double min_threshold = std::numeric_limits<double>::max();
  for (int bit = 0; bit < dram::kRowBits; ++bit) {
    min_threshold =
        std::min(min_threshold, model.cell_threshold(bank, row, bit));
  }
  double head_min = std::numeric_limits<double>::max();
  for (const auto* order :
       {&summary.outlier_by_u, &summary.weak_by_u, &summary.bulk_by_u}) {
    if (!order->empty()) {
      head_min =
          std::min(head_min, model.cell_threshold(bank, row, order->front()));
    }
  }
  EXPECT_DOUBLE_EQ(min_threshold, head_min);
}

TEST(ThresholdCache, LruEvictsBeyondCapacity) {
  const FaultModel model(dram::chip_profiles()[2].disturb);
  BankThresholdCache cache({0, 0, 0}, 2);
  (void)cache.get(model, 1);
  (void)cache.get(model, 2);
  (void)cache.get(model, 3);  // evicts row 1
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.peek(1), nullptr);
  EXPECT_NE(cache.peek(2), nullptr);
  EXPECT_NE(cache.peek(3), nullptr);
}

}  // namespace
}  // namespace hbmrd::disturb
