// Per-bank LRU cache of materialized row threshold summaries.
//
// The fault model is stateless: every per-cell property (threshold uniform,
// retention uniform, population membership, cell orientation) is a pure hash
// of (seed, coordinates). That makes the per-cell hashes the dominant cost
// of sensing a disturbed row — and makes their results perfectly cacheable:
// a summary never goes stale, not even across power cycles or board resets,
// because the seed defines it.
//
// A RowThresholdSummary materializes one row's per-cell uniforms and flags,
// plus each population's cells sorted ascending by uniform. Since a cell's
// threshold is median * exp(sigma * Phi^-1(u)), the sorted order IS the
// threshold order: the head of the weakest population is the row's HC_first
// cell, and walking the sorted tail yields the HC_2nd..HC_nth thresholds
// that BER-vs-hammer-count queries sweep across. Every sense reads its
// row's summary: the prefixes of the sorted lists that a conservative dose
// (or elapsed-time) bound cannot rule out form the sense's candidate mask,
// and the bit planes below decide those candidates a word at a time.
//
// Threading: a cache belongs to one dram::Stack owner and is accessed from
// a single thread (the parallel campaign runner gives every worker its own
// chip, hence its own cache); there is deliberately no locking.
#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "disturb/fault_model.h"
#include "dram/geometry.h"

namespace hbmrd::disturb {

struct RowThresholdSummary {
  // Population/orientation flags, one byte per cell.
  static constexpr std::uint8_t kTrueCell = 1;  // charged state stores 1
  static constexpr std::uint8_t kLeaky = 2;     // leaky retention population
  static constexpr std::uint8_t kOutlier = 4;   // outlier threshold population
  static constexpr std::uint8_t kWeak = 8;      // weak threshold population

  /// One bit per cell, 64 cells per word (bit b of word w = cell 64*w+b).
  static constexpr int kPlaneWords = dram::kRowBits / 64;
  using BitPlane = std::array<std::uint64_t, kPlaneWords>;

  RowContext ctx;
  /// Minimum cell retention at the reference temperature, seconds
  /// (bit-identical to Bank's lazy per-row scan).
  double min_retention_ref_s = 0.0;

  /// Per-cell raw uniforms (verbatim fault-model hash results).
  std::vector<double> cell_u;       // threshold deviate uniform
  std::vector<double> retention_u;  // retention deviate uniform (own pop.)
  std::vector<std::uint8_t> flags;

  /// Cells of each threshold population, sorted ascending by cell_u —
  /// i.e. weakest threshold first (HC_first at the head).
  std::vector<int> outlier_by_u;
  std::vector<int> weak_by_u;
  std::vector<int> bulk_by_u;
  /// Cells of each retention population, sorted ascending by retention_u.
  std::vector<int> leaky_by_u;
  std::vector<int> normal_by_u;

  /// The same memberships as `flags`, one bit per cell, for the
  /// word-parallel sense path (dram/bank.cpp): a cell is charged iff its
  /// stored bit equals its true_plane bit, a whole word at a time.
  /// weak_plane excludes outlier cells (same precedence as `flags`).
  BitPlane true_plane{};
  BitPlane leaky_plane{};
  BitPlane outlier_plane{};
  BitPlane weak_plane{};
  /// Deterministic power-on contents (fault-model power_on_word verbatim),
  /// so fresh-row materialization of a cached row skips its hash pass.
  BitPlane power_on{};
};

/// Reusable sort scratch for build_row_summary; owning one amortizes the
/// allocation across builds (BankThresholdCache keeps one per bank).
struct SummaryBuildScratch {
  /// (integer uniform key, bit) pairs; the 53-bit key reproduces the
  /// double uniform exactly, so integer order == double order.
  std::vector<std::pair<std::uint64_t, int>> keyed;
  std::vector<std::pair<std::uint64_t, int>> sorted;
  std::vector<std::uint32_t> bucket_heads;
};

/// Builds the summary for one row (pure function of the model's seed and
/// the coordinates; exposed for tests and benchmarks). `scratch` is
/// optional; passing one makes repeated builds allocation-free apart from
/// the summary's own storage.
[[nodiscard]] RowThresholdSummary build_row_summary(
    const FaultModel& model, const dram::BankAddress& bank, int physical_row,
    SummaryBuildScratch* scratch = nullptr);

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
};

/// LRU over one bank's rows. Entries are immutable once built.
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
  SummaryBuildScratch build_scratch_;
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
