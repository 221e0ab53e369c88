// Per-bank LRU cache of materialized row threshold summaries.
//
// The fault model is stateless: every per-cell property (threshold uniform,
// retention uniform, population membership, cell orientation) is a pure hash
// of (seed, coordinates). That makes the per-cell hashes the dominant cost
// of sensing a disturbed row — and makes their results perfectly cacheable:
// a summary never goes stale, not even across power cycles or board resets,
// because the seed defines it.
//
// A RowThresholdSummary holds what every sense of its row reads: the
// population bit planes, and each population's cells grouped by the top
// bits of their uniform. A cell's threshold is median * exp(sigma *
// Phi^-1(u)), so "which cells can flip at this dose" is "which cells of
// each population have u <= bound": every bucket below the bound's own is
// taken whole, and only the bound's bucket compares uniforms. Those cells
// form the sense's candidate mask, and the bit planes below decide them a
// word at a time. The summary stores no uniform: a candidate's is one hash
// of a stored per-row prefix, bit-identical to the fault model's.
//
// Threading: a cache belongs to one dram::Stack owner and is accessed from
// a single thread (the parallel campaign runner gives every worker its own
// chip, hence its own cache); there is deliberately no locking.
#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "disturb/fault_model.h"
#include "dram/geometry.h"
#include "util/counters.h"
#include "util/rng.h"

namespace hbmrd::disturb {

/// One population family's cells, grouped by population and then by
/// uniform bucket: population p's bucket k holds, in ascending bit order,
/// the cells whose uniform lies in [k, k + 1) / kBuckets. The family
/// partitions the row, so every cell appears exactly once.
template <int kPopulations>
struct BucketedCells {
  static constexpr int kBucketBits = 11;
  static constexpr int kBuckets = 1 << kBucketBits;
  static_assert(dram::kRowBits <= 0xFFFF,
                "cell indices and offsets are uint16_t");

  /// Bucket of a cell whose hash is `h` (uniform = util::to_unit(h)).
  [[nodiscard]] static constexpr int bucket_of(std::uint64_t h) noexcept {
    return static_cast<int>(h >> (64 - kBucketBits));
  }

  /// cells[starts[p * kBuckets + k] .. starts[p * kBuckets + k + 1]) is
  /// population p's bucket k.
  std::array<std::uint16_t, dram::kRowBits> cells;
  std::array<std::uint16_t, kPopulations * kBuckets + 1> starts;

  /// Population p's cells, bucket by bucket.
  [[nodiscard]] std::span<const std::uint16_t> population(int p) const {
    return range(p * kBuckets, (p + 1) * kBuckets);
  }
  /// Cells of population p's buckets [first, last).
  [[nodiscard]] std::span<const std::uint16_t> buckets(int p, int first,
                                                       int last) const {
    return range(p * kBuckets + first, p * kBuckets + last);
  }

 private:
  [[nodiscard]] std::span<const std::uint16_t> range(int first,
                                                     int last) const {
    return std::span(cells).subspan(
        starts[static_cast<std::size_t>(first)],
        static_cast<std::size_t>(starts[static_cast<std::size_t>(last)] -
                                 starts[static_cast<std::size_t>(first)]));
  }
};

struct RowThresholdSummary {
  /// One bit per cell, 64 cells per word (bit b of word w = cell 64*w+b).
  static constexpr int kPlaneWords = dram::kRowBits / 64;
  using BitPlane = std::array<std::uint64_t, kPlaneWords>;

  /// Threshold populations (membership precedence: outlier over weak).
  enum ThresholdPopulation { kOutlier, kWeak, kBulk };
  /// Retention populations.
  enum RetentionPopulation { kLeaky, kNormal };

  RowContext ctx;
  /// Minimum cell retention at the reference temperature, seconds
  /// (disturb::min_retention_ref_seconds of this row).
  double min_retention_ref_s = 0.0;

  /// Hash prefixes of the per-cell uniforms (FaultModel::RowHashPrefixes).
  std::uint64_t threshold_prefix = 0;
  std::uint64_t leaky_retention_prefix = 0;
  std::uint64_t normal_retention_prefix = 0;

  /// Raw uniform of a cell's threshold deviate
  /// (FaultModel::cell_threshold_uniform, bit for bit).
  [[nodiscard]] double threshold_u(int bit) const noexcept {
    return util::to_unit(
        util::mix64(threshold_prefix ^ static_cast<std::uint64_t>(bit)));
  }
  /// Raw uniform of a cell's retention deviate in its own population
  /// (FaultModel::retention_uniform, bit for bit).
  [[nodiscard]] double retention_u(int bit, bool leaky) const noexcept {
    return util::to_unit(
        util::mix64((leaky ? leaky_retention_prefix : normal_retention_prefix) ^
                    static_cast<std::uint64_t>(bit)));
  }

  /// Set the mask bit of every cell of one population whose uniform is
  /// <= `bound`: the cells a sense cannot rule out. Whole buckets below the
  /// bound's are marked without reading a uniform.
  void mark_threshold_at_most(ThresholdPopulation p, double bound,
                              std::span<std::uint64_t> mask) const;
  void mark_retention_at_most(RetentionPopulation p, double bound,
                              std::span<std::uint64_t> mask) const;

  /// Outlier, weak and bulk cells by threshold uniform.
  BucketedCells<3> by_threshold;
  /// Leaky and normal cells by retention uniform.
  BucketedCells<2> by_retention;

  /// Population memberships, one bit per cell, for the word-parallel sense
  /// path (dram/bank.cpp): a cell is charged iff its stored bit equals its
  /// true_plane bit, a whole word at a time. weak_plane excludes outlier
  /// cells; a cell in neither is bulk.
  BitPlane true_plane{};
  BitPlane leaky_plane{};
  BitPlane outlier_plane{};
  BitPlane weak_plane{};
  /// Deterministic power-on contents (fault-model power_on_word verbatim),
  /// so fresh-row materialization of a cached row skips its hash pass.
  BitPlane power_on{};
};

/// Builds one row's summary into `out`, overwriting all of it (a pure
/// function of the model's seed and the coordinates). Reusing `out` makes
/// a rebuild allocation-free; BankThresholdCache rebuilds into the entry
/// it evicts.
void build_row_summary(const FaultModel& model, const dram::BankAddress& bank,
                       int physical_row, RowThresholdSummary& out);

struct ThresholdCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;   // lookups that found no entry (peek and get)
  std::uint64_t builds = 0;   // summaries materialized by get()
  std::uint64_t evictions = 0;

  /// Epoch-relative summary counters (`cache.summary_*` in the metrics
  /// catalogue). An epoch is the interval between power cycles; the
  /// campaign runner opens one per trial. Within an epoch, the first
  /// lookup of a row counts one summary_miss (the trial would have to
  /// build it on a cold cache), every repeat counts a summary_hit, and a
  /// first lookup beyond the bank's capacity counts a summary_eviction
  /// (the spill a cold cache of this capacity could not avoid). Unlike
  /// the raw hit/miss split above — which depends on which worker's warm
  /// cache served the trial — these are pure functions of the epoch's
  /// lookup sequence, so they are deterministic across --jobs N.
  std::uint64_t summary_hits = 0;
  std::uint64_t summary_misses = 0;
  std::uint64_t summary_evictions = 0;

  /// Total lookups. Every peek()/get() counts exactly one hit or miss, so
  /// this is a pure function of the callers' control flow — deterministic
  /// across --jobs N — while the hit/miss split depends on which worker's
  /// cache served the trial (telemetry). docs/OBSERVABILITY.md states the
  /// contract. summary_hits + summary_misses == lookups() always.
  [[nodiscard]] std::uint64_t lookups() const { return hits + misses; }

  /// `cache.lookups` is derived, so the campaign runner adds it itself.
  using enum util::MetricKind;
  static constexpr util::CounterField<ThresholdCacheStats> kCounterFields[] = {
      {"cache.hits", &ThresholdCacheStats::hits, kTelemetry},
      {"cache.misses", &ThresholdCacheStats::misses, kTelemetry},
      {"cache.builds", &ThresholdCacheStats::builds, kTelemetry},
      {"cache.evictions", &ThresholdCacheStats::evictions, kTelemetry},
      {"cache.summary_hits", &ThresholdCacheStats::summary_hits},
      {"cache.summary_misses", &ThresholdCacheStats::summary_misses},
      {"cache.summary_evictions", &ThresholdCacheStats::summary_evictions},
  };
};

/// LRU over one bank's rows. Entries are immutable once built; a miss on a
/// full cache rebuilds the least recently used entry in place.
class BankThresholdCache {
 public:
  BankThresholdCache(dram::BankAddress address, std::size_t capacity)
      : address_(address), capacity_(capacity == 0 ? 1 : capacity) {}

  /// Returns the cached summary without building: nullptr on miss. A hit
  /// refreshes the entry's LRU position; both outcomes count one lookup.
  [[nodiscard]] const RowThresholdSummary* peek(int physical_row);

  /// Returns the row's summary, building (and possibly evicting) on miss.
  [[nodiscard]] const RowThresholdSummary& get(const FaultModel& model,
                                               int physical_row);

  [[nodiscard]] const ThresholdCacheStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t size() const { return lru_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Starts a new summary-counter epoch (see ThresholdCacheStats); the
  /// cached entries are untouched — they never go stale.
  void begin_epoch() { epoch_rows_.clear(); }

 private:
  dram::BankAddress address_;
  std::size_t capacity_;
  /// Front = most recently used.
  std::list<std::pair<int, RowThresholdSummary>> lru_;
  std::unordered_map<int, decltype(lru_)::iterator> index_;
  /// Rows looked up since the last begin_epoch() (summary_* accounting).
  std::unordered_set<int> epoch_rows_;
  ThresholdCacheStats stats_;
};

/// Stack-level owner: one lazily created BankThresholdCache per bank.
/// Held by shared_ptr in StackConfig so summaries survive power cycles
/// (the stack is rebuilt; the cache is not — its entries are seed-pure).
class ThresholdCache {
 public:
  static constexpr std::size_t kDefaultRowsPerBank = 16;

  explicit ThresholdCache(std::size_t rows_per_bank = kDefaultRowsPerBank)
      : rows_per_bank_(rows_per_bank) {}

  /// The per-bank cache for `flat_index` (the stack's bank index).
  [[nodiscard]] BankThresholdCache& bank(const dram::BankAddress& address,
                                         std::size_t flat_index) {
    if (flat_index >= banks_.size()) banks_.resize(flat_index + 1);
    auto& slot = banks_[flat_index];
    if (!slot) {
      slot = std::make_unique<BankThresholdCache>(address, rows_per_bank_);
    }
    return *slot;
  }

  /// Aggregate hit/miss/eviction counts across all banks.
  [[nodiscard]] ThresholdCacheStats totals() const;

  /// Starts a new summary-counter epoch in every bank cache. The chip
  /// calls this from power_cycle(), which the campaign runner issues at
  /// every trial start — making the per-trial summary_* deltas pure
  /// functions of the trial body.
  void begin_epoch() {
    for (auto& bank : banks_) {
      if (bank) bank->begin_epoch();
    }
  }

 private:
  std::size_t rows_per_bank_;
  std::vector<std::unique_ptr<BankThresholdCache>> banks_;
};

}  // namespace hbmrd::disturb
