#include "disturb/threshold_cache.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "util/rng.h"

namespace hbmrd::disturb {

namespace {

/// Fills a population list with its member cells sorted ascending by their
/// uniform, ties broken by bit index. Every uniform is k * 2^-53 for a
/// 53-bit integer k, so u * 0x1p53 recovers k exactly and sorting the
/// (k, bit) pairs with the default pair ordering gives exactly the
/// (uniform asc, bit asc) order — on integer keys.
///
/// The keys are uniformly distributed, which makes a single-pass bucket
/// sort (scatter by the key's top bits, then sort each tiny bucket) run in
/// ~O(n) instead of O(n log n): the row-summary build sorts two full rows
/// worth of cells, and this is its dominant cost.
void collect_sorted(std::vector<int>& out,
                    const RowThresholdSummary::BitPlane& plane,
                    const std::vector<double>& u, SummaryBuildScratch& sc,
                    bool complement = false) {
  auto& keyed = sc.keyed;
  keyed.clear();
  for (int w = 0; w < RowThresholdSummary::kPlaneWords; ++w) {
    std::uint64_t m = plane[static_cast<std::size_t>(w)];
    if (complement) m = ~m;
    while (m != 0) {
      const int bit = w * 64 + std::countr_zero(m);
      m &= m - 1;
      keyed.emplace_back(
          static_cast<std::uint64_t>(u[static_cast<std::size_t>(bit)] *
                                     0x1p53),
          bit);
    }
  }
  const std::size_t n = keyed.size();
  out.resize(n);
  if (n < 64) {
    std::sort(keyed.begin(), keyed.end());
    for (std::size_t i = 0; i < n; ++i) out[i] = keyed[i].second;
    return;
  }

  // ~4 keys per bucket on average; degenerate buckets fall back to the
  // comparison sort below, so correctness never depends on uniformity.
  constexpr int kBucketBits = 11;
  constexpr std::uint32_t kBuckets = 1u << kBucketBits;
  constexpr int kShift = 53 - kBucketBits;
  auto& heads = sc.bucket_heads;
  heads.assign(kBuckets + 1, 0);
  for (const auto& [key, bit] : keyed) ++heads[(key >> kShift) + 1];
  for (std::uint32_t b = 0; b < kBuckets; ++b) heads[b + 1] += heads[b];
  auto& sorted = sc.sorted;
  sorted.resize(n);
  for (const auto& entry : keyed) {
    sorted[heads[entry.first >> kShift]++] = entry;
  }
  // heads[b] now holds bucket b's END offset (== start of bucket b + 1).
  std::uint32_t begin = 0;
  for (std::uint32_t b = 0; b < kBuckets; ++b) {
    const std::uint32_t end = heads[b];
    if (end - begin > 1) {
      std::sort(sorted.begin() + begin, sorted.begin() + end);
    }
    begin = end;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = sorted[i].second;
}

}  // namespace

RowThresholdSummary build_row_summary(const FaultModel& model,
                                      const dram::BankAddress& bank,
                                      int physical_row,
                                      SummaryBuildScratch* scratch) {
  RowThresholdSummary s;
  s.ctx = model.row_context(bank, physical_row);
  const auto n = static_cast<std::size_t>(dram::kRowBits);
  s.cell_u.resize(n);
  s.retention_u.resize(n);
  s.flags.resize(n);

  // Word-batched plane fills: one hoisted hash prefix per property, one
  // mix64 round per cell, no branches (see FaultModel::row_hash_prefixes
  // for the bit-identity argument).
  const auto& params = model.params();
  const auto prefixes = model.row_hash_prefixes(bank, physical_row);
  FaultModel::fill_membership_plane(prefixes.orientation,
                                    params.true_cell_fraction, s.true_plane);
  FaultModel::fill_membership_plane(prefixes.outlier, params.outlier_fraction,
                                    s.outlier_plane);
  FaultModel::fill_membership_plane(prefixes.weak, s.ctx.weak_density,
                                    s.weak_plane);
  FaultModel::fill_membership_plane(prefixes.leaky, params.leaky_cell_fraction,
                                    s.leaky_plane);
  FaultModel::fill_uniform_row(prefixes.cell_threshold, s.cell_u);
  FaultModel::fill_retention_uniform_row(prefixes.leaky_retention,
                                         prefixes.normal_retention,
                                         s.leaky_plane, s.retention_u);
  model.fill_power_on_row(bank, physical_row, s.power_on);
  for (int w = 0; w < RowThresholdSummary::kPlaneWords; ++w) {
    const auto wi = static_cast<std::size_t>(w);
    // Same membership precedence as the sense scan: outlier wins over weak.
    s.weak_plane[wi] &= ~s.outlier_plane[wi];
    const std::uint64_t t = s.true_plane[wi];
    const std::uint64_t l = s.leaky_plane[wi];
    const std::uint64_t o = s.outlier_plane[wi];
    const std::uint64_t wk = s.weak_plane[wi];
    for (int b = 0; b < 64; ++b) {
      s.flags[wi * 64 + static_cast<std::size_t>(b)] = static_cast<
          std::uint8_t>(((t >> b) & 1u) * RowThresholdSummary::kTrueCell |
                        ((l >> b) & 1u) * RowThresholdSummary::kLeaky |
                        ((o >> b) & 1u) * RowThresholdSummary::kOutlier |
                        ((wk >> b) & 1u) * RowThresholdSummary::kWeak);
    }
  }

  double min_u_leaky = 2.0;
  double min_u_normal = 2.0;
  for (int bit = 0; bit < dram::kRowBits; ++bit) {
    const auto i = static_cast<std::size_t>(bit);
    const double ru = s.retention_u[i];
    const bool leaky = (s.leaky_plane[i >> 6] >> (bit & 63)) & 1u;
    if (leaky) {
      min_u_leaky = std::min(min_u_leaky, ru);
    } else {
      min_u_normal = std::min(min_u_normal, ru);
    }
  }

  SummaryBuildScratch local;
  SummaryBuildScratch& sc = scratch != nullptr ? *scratch : local;
  collect_sorted(s.outlier_by_u, s.outlier_plane, s.cell_u, sc);
  collect_sorted(s.weak_by_u, s.weak_plane, s.cell_u, sc);
  RowThresholdSummary::BitPlane bulk;
  for (int w = 0; w < RowThresholdSummary::kPlaneWords; ++w) {
    const auto wi = static_cast<std::size_t>(w);
    bulk[wi] = ~(s.outlier_plane[wi] | s.weak_plane[wi]);
  }
  collect_sorted(s.bulk_by_u, bulk, s.cell_u, sc);
  collect_sorted(s.leaky_by_u, s.leaky_plane, s.retention_u, sc);
  collect_sorted(s.normal_by_u, s.leaky_plane, s.retention_u, sc,
                 /*complement=*/true);

  // Minimum retention at the reference temperature: the exact expressions
  // Bank::min_retention_ref_seconds evaluates, over the same minima, so
  // the cached value is bit-identical to the lazy per-row scan.
  double minimum = std::numeric_limits<double>::max();
  if (min_u_leaky <= 1.0) {
    minimum = std::min(
        minimum, params.leaky_retention_median_s *
                     std::exp(params.leaky_retention_sigma *
                              util::inverse_normal_cdf(
                                  std::max(1e-300, min_u_leaky))));
  }
  if (min_u_normal <= 1.0) {
    minimum = std::min(
        minimum, params.normal_retention_median_s *
                     std::exp(params.normal_retention_sigma *
                              util::inverse_normal_cdf(
                                  std::max(1e-300, min_u_normal))));
  }
  s.min_retention_ref_s = minimum;
  return s;
}

const RowThresholdSummary* BankThresholdCache::peek(int physical_row) {
  // Epoch accounting first: a pure function of the lookup sequence since
  // begin_epoch(), independent of what earlier epochs left in the LRU.
  if (epoch_rows_.insert(physical_row).second) {
    ++stats_.summary_misses;
    if (epoch_rows_.size() > capacity_) ++stats_.summary_evictions;
  } else {
    ++stats_.summary_hits;
  }
  const auto it = index_.find(physical_row);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  return &it->second->second;
}

const RowThresholdSummary& BankThresholdCache::get(const FaultModel& model,
                                                   int physical_row) {
  if (const auto* cached = peek(physical_row)) return *cached;
  ++stats_.builds;  // peek counted the miss
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
  lru_.emplace_front(
      physical_row,
      build_row_summary(model, address_, physical_row, &build_scratch_));
  index_.emplace(physical_row, lru_.begin());
  return lru_.front().second;
}

ThresholdCacheStats ThresholdCache::totals() const {
  ThresholdCacheStats total;
  for (const auto& bank : banks_) {
    if (!bank) continue;
    total.hits += bank->stats().hits;
    total.misses += bank->stats().misses;
    total.builds += bank->stats().builds;
    total.evictions += bank->stats().evictions;
    total.summary_hits += bank->stats().summary_hits;
    total.summary_misses += bank->stats().summary_misses;
    total.summary_evictions += bank->stats().summary_evictions;
  }
  return total;
}

}  // namespace hbmrd::disturb
