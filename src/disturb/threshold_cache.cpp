#include "disturb/threshold_cache.h"

#include <algorithm>
#include <iterator>

#include "util/rng.h"

namespace hbmrd::disturb {

namespace {

using Summary = RowThresholdSummary;
using Keys = std::array<std::uint16_t, dram::kRowBits>;

/// One stable counting scatter: groups the row's cells by key
/// (population * kBuckets + bucket), ascending bit order inside a group.
template <int kPopulations>
void scatter(const Keys& keys, BucketedCells<kPopulations>& out) {
  auto& starts = out.starts;
  starts.fill(0);
  for (const std::uint16_t key : keys) ++starts[key + 1u];
  for (std::size_t k = 1; k < starts.size(); ++k) starts[k] += starts[k - 1];
  // starts[k] is key k's first slot; the scatter advances it to key k's
  // end, which is key k + 1's start, so one shift restores the starts.
  for (std::size_t bit = 0; bit < keys.size(); ++bit) {
    out.cells[starts[keys[bit]]++] = static_cast<std::uint16_t>(bit);
  }
  std::copy_backward(starts.begin(), starts.end() - 2, starts.end() - 1);
  starts[0] = 0;
}

template <int kPopulations, typename Uniform>
void mark_at_most(const BucketedCells<kPopulations>& cells, int p,
                  double bound, Uniform&& uniform,
                  std::span<std::uint64_t> mask) {
  using Cells = BucketedCells<kPopulations>;
  const auto mark = [&](int bit) {
    mask[static_cast<std::size_t>(bit >> 6)] |= 1ull << (bit & 63);
  };
  if (!(bound >= 0.0)) return;
  if (bound >= 1.0) {  // every uniform is < 1
    for (const int bit : cells.population(p)) mark(bit);
    return;
  }
  // Bucket k spans [k, k + 1) / kBuckets and scaling by a power of two is
  // exact, so every bucket below the bound's own lies wholly at or below
  // the bound and every bucket above it wholly above.
  const int edge = static_cast<int>(bound * Cells::kBuckets);
  for (const int bit : cells.buckets(p, 0, edge)) mark(bit);
  for (const int bit : cells.buckets(p, edge, edge + 1)) {
    if (uniform(bit) <= bound) mark(bit);
  }
}

}  // namespace

void RowThresholdSummary::mark_threshold_at_most(
    ThresholdPopulation p, double bound, std::span<std::uint64_t> mask) const {
  mark_at_most(
      by_threshold, p, bound, [&](int bit) { return threshold_u(bit); },
      mask);
}

void RowThresholdSummary::mark_retention_at_most(
    RetentionPopulation p, double bound, std::span<std::uint64_t> mask) const {
  mark_at_most(
      by_retention, p, bound,
      [&](int bit) { return retention_u(bit, p == kLeaky); }, mask);
}

void build_row_summary(const FaultModel& model, const dram::BankAddress& bank,
                       int physical_row, RowThresholdSummary& s) {
  s.ctx = model.row_context(bank, physical_row);

  // Word-batched plane fills: one hoisted hash prefix per property, one
  // mix64 round per cell, no branches (see FaultModel::row_hash_prefixes
  // for the bit-identity argument).
  const auto& params = model.params();
  const auto prefixes = model.row_hash_prefixes(bank, physical_row);
  s.threshold_prefix = prefixes.cell_threshold;
  s.leaky_retention_prefix = prefixes.leaky_retention;
  s.normal_retention_prefix = prefixes.normal_retention;
  FaultModel::fill_membership_plane(prefixes.orientation,
                                    params.true_cell_fraction, s.true_plane);
  FaultModel::fill_membership_plane(prefixes.outlier, params.outlier_fraction,
                                    s.outlier_plane);
  FaultModel::fill_membership_plane(prefixes.weak, s.ctx.weak_density,
                                    s.weak_plane);
  FaultModel::fill_membership_plane(prefixes.leaky, params.leaky_cell_fraction,
                                    s.leaky_plane);
  model.fill_power_on_row(bank, physical_row, s.power_on);
  // Same membership precedence as the sense scan: outlier wins over weak.
  for (std::size_t w = 0; w < s.weak_plane.size(); ++w) {
    s.weak_plane[w] &= ~s.outlier_plane[w];
  }
  constexpr int kBuckets = BucketedCells<3>::kBuckets;
  Keys keys;
  for (std::size_t w = 0; w < s.outlier_plane.size(); ++w) {
    const std::uint64_t o = s.outlier_plane[w];
    const std::uint64_t wk = s.weak_plane[w];
    for (std::uint64_t b = 0; b < 64; ++b) {
      const std::uint64_t bit = (w << 6) + b;
      const int population = ((o >> b) & 1u)    ? Summary::kOutlier
                             : ((wk >> b) & 1u) ? Summary::kWeak
                                                : Summary::kBulk;
      keys[bit] = static_cast<std::uint16_t>(
          population * kBuckets +
          BucketedCells<3>::bucket_of(
              util::mix64(prefixes.cell_threshold ^ bit)));
    }
  }
  scatter(keys, s.by_threshold);

  // One pass hashes each retention uniform for both the floor and the
  // bucket key.
  s.min_retention_ref_s = min_retention_ref_seconds(
      params, prefixes, s.leaky_plane,
      [&](std::uint64_t bit, bool leaky, std::uint64_t key) {
        const int population = leaky ? Summary::kLeaky : Summary::kNormal;
        keys[bit] = static_cast<std::uint16_t>(
            population * kBuckets + BucketedCells<2>::bucket_of(key << 11));
      });
  scatter(keys, s.by_retention);
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
    // The least recently used entry's storage takes the new row.
    index_.erase(lru_.back().first);
    lru_.splice(lru_.begin(), lru_, std::prev(lru_.end()));
    ++stats_.evictions;
  } else {
    lru_.emplace_front();
  }
  auto& [row, summary] = lru_.front();
  row = physical_row;
  build_row_summary(model, address_, physical_row, summary);
  index_.emplace(physical_row, lru_.begin());
  return summary;
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
