// Threshold cache: senses driven by the cached summaries must be
// bit-identical to the per-cell oracle, and the summary's bucket-grouped
// population lists must mark exactly the cells below a bound and hold the
// row's weakest cell (HC_first) in a first non-empty bucket.
#include "disturb/threshold_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

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

using Summary = RowThresholdSummary;
constexpr int kBuckets = BucketedCells<3>::kBuckets;

int bucket_of(double u) { return static_cast<int>(u * kBuckets); }

/// Per-cell uniforms and populations of one row, from the scalar model.
struct RowCells {
  std::vector<double> threshold_u;
  std::vector<double> retention_u;
  std::vector<int> threshold_pop;  // Summary::ThresholdPopulation
  std::vector<int> retention_pop;  // Summary::RetentionPopulation

  RowCells(const FaultModel& model, const dram::BankAddress& bank, int row) {
    const double weak_density = model.row_context(bank, row).weak_density;
    for (int bit = 0; bit < dram::kRowBits; ++bit) {
      const bool leaky = model.is_leaky_cell(bank, row, bit);
      threshold_u.push_back(model.cell_threshold_uniform(bank, row, bit));
      retention_u.push_back(model.retention_uniform(bank, row, bit, leaky));
      threshold_pop.push_back(
          model.is_outlier_cell(bank, row, bit) ? Summary::kOutlier
          : model.is_weak_cell(bank, row, bit, weak_density) ? Summary::kWeak
                                                             : Summary::kBulk);
      retention_pop.push_back(leaky ? Summary::kLeaky : Summary::kNormal);
    }
  }
};

/// Each population list holds exactly its population, bucket by bucket in
/// ascending order and in ascending bit order inside a bucket.
template <int kPopulations>
void expect_bucket_grouped(const BucketedCells<kPopulations>& cells,
                           const std::vector<double>& u,
                           const std::vector<int>& population) {
  for (int p = 0; p < kPopulations; ++p) {
    std::vector<int> expected;
    for (int bit = 0; bit < dram::kRowBits; ++bit) {
      if (population[static_cast<std::size_t>(bit)] == p) {
        expected.push_back(bit);
      }
    }
    const auto list = cells.population(p);
    std::vector<int> got(list.begin(), list.end());
    std::vector<int> sorted_got = got;
    std::sort(sorted_got.begin(), sorted_got.end());
    EXPECT_EQ(sorted_got, expected) << "population " << p;
    for (std::size_t i = 1; i < got.size(); ++i) {
      const int prev = bucket_of(u[static_cast<std::size_t>(got[i - 1])]);
      const int cur = bucket_of(u[static_cast<std::size_t>(got[i])]);
      ASSERT_TRUE(prev < cur || (prev == cur && got[i - 1] < got[i]))
          << "population " << p << " position " << i;
    }
    for (int k = 0; k < kBuckets; ++k) {
      for (const int bit : cells.buckets(p, k, k + 1)) {
        ASSERT_EQ(bucket_of(u[static_cast<std::size_t>(bit)]), k)
            << "population " << p << " bit " << bit;
      }
    }
  }
}

TEST(ThresholdCache, SummaryListsAreBucketGroupedPopulations) {
  const FaultModel model(dram::chip_profiles()[2].disturb);
  const dram::BankAddress bank{0, 0, 0};
  const int row = 200;
  Summary summary;
  build_row_summary(model, bank, row, summary);
  const RowCells cells(model, bank, row);
  expect_bucket_grouped(summary.by_threshold, cells.threshold_u,
                        cells.threshold_pop);
  expect_bucket_grouped(summary.by_retention, cells.retention_u,
                        cells.retention_pop);

  // HC_first: the minimum cell threshold over the whole row is attained in
  // the first non-empty bucket of one of the threshold populations (the
  // threshold is monotone in the uniform within a population).
  double min_threshold = std::numeric_limits<double>::max();
  for (int bit = 0; bit < dram::kRowBits; ++bit) {
    min_threshold =
        std::min(min_threshold, model.cell_threshold(bank, row, bit));
  }
  double head_min = std::numeric_limits<double>::max();
  for (const int p : {Summary::kOutlier, Summary::kWeak, Summary::kBulk}) {
    for (int k = 0; k < kBuckets; ++k) {
      const auto head = summary.by_threshold.buckets(p, k, k + 1);
      if (head.empty()) continue;
      for (const int bit : head) {
        head_min = std::min(head_min, model.cell_threshold(bank, row, bit));
      }
      break;
    }
  }
  EXPECT_DOUBLE_EQ(min_threshold, head_min);
}

TEST(ThresholdCache, MarkAtMostIsExactlyThePopulationBelowTheBound) {
  const FaultModel model(dram::chip_profiles()[2].disturb);
  const dram::BankAddress bank{0, 0, 0};
  const int row = 777;
  Summary summary;
  build_row_summary(model, bank, row, summary);
  const RowCells cells(model, bank, row);

  std::vector<double> bounds = {0.0, 1.0, 1.5, 0x1p-1074, 0.5 * 0x1p-11};
  for (int k = 1; k <= kBuckets; ++k) {
    const double edge = static_cast<double>(k) / kBuckets;
    bounds.push_back(std::nextafter(edge, 0.0));
    bounds.push_back(edge);
    bounds.push_back(std::nextafter(edge, 2.0));
  }
  for (int i = 1; i <= 200; ++i) {
    bounds.push_back(std::fmod(i * 0.6180339887498949, 1.0));
  }
  // Bounds equal to a cell's own uniform, where <= and < part ways.
  for (int bit = 0; bit < dram::kRowBits; bit += 97) {
    bounds.push_back(cells.threshold_u[static_cast<std::size_t>(bit)]);
    bounds.push_back(cells.retention_u[static_cast<std::size_t>(bit)]);
  }

  using Plane = Summary::BitPlane;
  const auto brute = [&](const std::vector<double>& u,
                         const std::vector<int>& population, int p,
                         double bound) {
    Plane mask{};
    for (int bit = 0; bit < dram::kRowBits; ++bit) {
      const auto i = static_cast<std::size_t>(bit);
      if (population[i] == p && u[i] <= bound) {
        mask[i >> 6] |= 1ull << (bit & 63);
      }
    }
    return mask;
  };
  for (const double bound : bounds) {
    for (const auto p : {Summary::kOutlier, Summary::kWeak, Summary::kBulk}) {
      Plane mask{};
      summary.mark_threshold_at_most(p, bound, mask);
      ASSERT_EQ(mask, brute(cells.threshold_u, cells.threshold_pop, p, bound))
          << "threshold population " << p << " bound " << bound;
    }
    for (const auto p : {Summary::kLeaky, Summary::kNormal}) {
      Plane mask{};
      summary.mark_retention_at_most(p, bound, mask);
      ASSERT_EQ(mask, brute(cells.retention_u, cells.retention_pop, p, bound))
          << "retention population " << p << " bound " << bound;
    }
  }
}

TEST(ThresholdCache, RebuildIntoUsedStorageEqualsAFreshBuild) {
  const FaultModel model(dram::chip_profiles()[2].disturb);
  const dram::BankAddress bank{0, 1, 2};
  Summary reused;
  build_row_summary(model, bank, 10, reused);
  build_row_summary(model, bank, 11, reused);
  Summary fresh;
  build_row_summary(model, bank, 11, fresh);
  EXPECT_EQ(reused.min_retention_ref_s, fresh.min_retention_ref_s);
  EXPECT_EQ(reused.threshold_prefix, fresh.threshold_prefix);
  EXPECT_EQ(reused.by_threshold.cells, fresh.by_threshold.cells);
  EXPECT_EQ(reused.by_threshold.starts, fresh.by_threshold.starts);
  EXPECT_EQ(reused.by_retention.cells, fresh.by_retention.cells);
  EXPECT_EQ(reused.by_retention.starts, fresh.by_retention.starts);
  EXPECT_EQ(reused.weak_plane, fresh.weak_plane);
  EXPECT_EQ(reused.power_on, fresh.power_on);
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
