// Per-cell read-disturbance and retention fault model.
//
// Every queried property is a pure, deterministic function of
// (params.seed, physical coordinates); no per-cell state is stored. The
// device model (dram/bank.h) asks this class, at sense time, whether the
// disturbance dose accumulated by a row has crossed each cell's threshold.
//
// Cells form two threshold populations (see DisturbParams): a sparse weak
// (defect-tail) population whose per-row density carries the spatial
// vulnerability structure, and the ~25x stronger bulk that only yields
// under heavy RowPress amplification.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "disturb/params.h"
#include "dram/geometry.h"
#include "dram/timing.h"
#include "util/rng.h"

namespace hbmrd::disturb {

/// Precomputed per-row threshold context (hoisted out of per-cell loops).
struct RowContext {
  double weak_median = 0;    // threshold scale of this row's weak cells
  double weak_sigma = 0;     // lognormal sigma of the weak population
  double bulk_median = 0;    // threshold scale of the bulk population
  double bulk_sigma = 0;
  double weak_density = 0;   // probability that a cell is weak
  double outlier_median = 0;  // outlier population scale (== weak_median)
  double outlier_sigma = 0;
};

class FaultModel {
 public:
  explicit FaultModel(const DisturbParams& params);

  [[nodiscard]] const DisturbParams& params() const { return p_; }

  /// Per-row threshold context. `physical_row` is a physical row index.
  [[nodiscard]] RowContext row_context(const dram::BankAddress& bank,
                                       int physical_row) const;

  /// Whether a cell belongs to the weak population, given the row's
  /// weak density (from row_context).
  [[nodiscard]] bool is_weak_cell(const dram::BankAddress& bank,
                                  int physical_row, int bit,
                                  double weak_density) const;

  /// Whether a cell belongs to the sparse outlier population (takes
  /// precedence over weak membership).
  [[nodiscard]] bool is_outlier_cell(const dram::BankAddress& bank,
                                     int physical_row, int bit) const;

  /// Disturbance threshold of one cell, in equivalent minimum-on-time
  /// single-aggressor activations (convenience; the sense loop uses the
  /// CDF form below).
  [[nodiscard]] double cell_threshold(const dram::BankAddress& bank,
                                      int physical_row, int bit) const;

  /// True cells store logic-1 as the charged state; anti cells store
  /// logic-0 as the charged state. Disturbance and retention loss discharge
  /// cells, so a cell can only flip while it stores its charged value.
  [[nodiscard]] bool is_true_cell(const dram::BankAddress& bank,
                                  int physical_row, int bit) const;

  /// True when `stored_bit` is this cell's charged state.
  [[nodiscard]] bool is_charged(const dram::BankAddress& bank,
                                int physical_row, int bit,
                                bool stored_bit) const {
    return stored_bit == is_true_cell(bank, physical_row, bit);
  }

  /// Retention time of one cell at the given chip temperature, in seconds.
  [[nodiscard]] double retention_seconds(const dram::BankAddress& bank,
                                         int physical_row, int bit,
                                         double temperature_c) const;

  /// Dose contributed by one aggressor activation that kept the row open
  /// for `on_cycles`, relative to a minimum-on-time activation (RowPress
  /// amplification, Sec. 6). Monotone non-decreasing in on_cycles; 1.0 at
  /// the minimum legal on-time.
  [[nodiscard]] double taggon_factor(dram::Cycle on_cycles) const;

  /// Bit-level coupling multiplier: aggressor bit vs victim bit, plus the
  /// intra-row neighbour bonus (neighbours storing the opposite value).
  [[nodiscard]] double coupling(bool victim_bit, bool aggressor_bit,
                                bool intra_row_differs) const;

  /// Dose multiplier for an aggressor at the given physical row distance
  /// (+-1 adjacent, +-2 blast radius; zero beyond).
  [[nodiscard]] double distance_factor(int distance) const;

  /// Mild temperature scaling of vulnerability (multiplies the dose).
  [[nodiscard]] double temperature_vulnerability(double temperature_c) const;

  /// Deterministic power-on content of a cell (value read before any write).
  [[nodiscard]] bool power_on_bit(const dram::BankAddress& bank,
                                  int physical_row, int bit) const;

  /// Power-on contents of one 64-bit word (bit b of the word is cell
  /// word*64+b); the per-word form keeps fresh-row materialization cheap.
  [[nodiscard]] std::uint64_t power_on_word(const dram::BankAddress& bank,
                                            int physical_row,
                                            int word_index) const;

  /// Hoisted per-row prefix of power_on_word: a row's words then cost one
  /// mix each (power_on_word_at), bit-identical to power_on_word.
  [[nodiscard]] std::uint64_t power_on_prefix(const dram::BankAddress& bank,
                                              int physical_row) const;
  [[nodiscard]] static std::uint64_t power_on_word_at(
      std::uint64_t prefix, int word_index) noexcept {
    return util::mix64(prefix ^ static_cast<std::uint64_t>(word_index));
  }

  // -- Fast sense-path primitives -------------------------------------------
  // For either population, threshold <= dose is equivalent to
  //   cell_threshold_uniform(...) <= normal_cdf(ln(dose / median) / sigma)
  // because the threshold is median * exp(sigma * Phi^-1(u)) for the same
  // uniform u. The device model's sense loop uses this form so the per-cell
  // cost is a couple of hashes instead of an inverse-normal evaluation.

  /// Raw uniform driving this cell's threshold deviate.
  [[nodiscard]] double cell_threshold_uniform(const dram::BankAddress& bank,
                                              int physical_row,
                                              int bit) const;

  /// Whether the cell belongs to the leaky retention population.
  [[nodiscard]] bool is_leaky_cell(const dram::BankAddress& bank,
                                   int physical_row, int bit) const;

  /// Raw uniform driving this cell's retention deviate (leaky cells and
  /// normal cells use distinct hash domains; pass the matching flag).
  [[nodiscard]] double retention_uniform(const dram::BankAddress& bank,
                                         int physical_row, int bit,
                                         bool leaky) const;

  /// Median retention (seconds) of the given population at a temperature.
  [[nodiscard]] double retention_median_seconds(bool leaky,
                                                double temperature_c) const;
  [[nodiscard]] double retention_sigma(bool leaky) const {
    return leaky ? p_.leaky_retention_sigma : p_.normal_retention_sigma;
  }

  /// Standard normal CDF.
  [[nodiscard]] static double normal_cdf(double z);

  // -- Word-batched row primitives (bitplane device model) ------------------
  // Every per-cell property above hashes (seed, tag, bank, row, bit); the
  // fold structure of util::hash_key means the (seed, tag, bank, row)
  // prefix can be hoisted once per row, leaving one mix64 round per cell.
  // The helpers below exploit that seam: mixing a hoisted prefix with a
  // bit index is integer-identical to the corresponding per-cell call, so
  // planes and uniforms computed from a RowHashPrefixes reproduce the
  // scalar hashes bit for bit (asserted by tests/device_bitplane_test.cpp).

  /// Hoisted per-row hash prefixes, one per per-cell hash domain.
  struct RowHashPrefixes {
    std::uint64_t orientation = 0;       // is_true_cell
    std::uint64_t outlier = 0;           // is_outlier_cell
    std::uint64_t weak = 0;              // is_weak_cell
    std::uint64_t cell_threshold = 0;    // cell_threshold_uniform
    std::uint64_t leaky = 0;             // is_leaky_cell
    std::uint64_t leaky_retention = 0;   // retention_uniform(leaky=true)
    std::uint64_t normal_retention = 0;  // retention_uniform(leaky=false)
  };
  [[nodiscard]] RowHashPrefixes row_hash_prefixes(
      const dram::BankAddress& bank, int physical_row) const;

  /// Fills a 64-bit-per-word membership plane: bit b of word w is set iff
  /// the uniform of cell 64*w + b under `prefix` is < fraction. `out`
  /// spans kRowBits/64 words.
  static void fill_membership_plane(std::uint64_t prefix, double fraction,
                                    std::span<std::uint64_t> out) noexcept;

  /// Fills a row's power-on contents (power_on_word of every word) from
  /// one hoisted prefix; `out` spans kRowBits/64 words.
  void fill_power_on_row(const dram::BankAddress& bank, int physical_row,
                         std::span<std::uint64_t> out) const;

  /// Conservative lower bound on any cell threshold of any row of this
  /// chip (5-sigma process-variation margins, 6-sigma cell margin). Doses
  /// below it can never flip anything, letting the device skip the
  /// per-row context entirely — the hot path of refresh-heavy workloads.
  [[nodiscard]] double global_threshold_floor() const {
    return threshold_floor_;
  }

 private:
  static constexpr std::size_t kTaggonMemoSlots = 16;

  DisturbParams p_;
  double threshold_floor_ = 0.0;
  /// Memo for taggon_factor (few distinct on-times per workload). Mutable
  /// because the model is logically const; a FaultModel is owned by one
  /// Stack and driven from one thread, like the threshold cache.
  mutable std::vector<std::pair<dram::Cycle, double>> taggon_memo_;
};

/// Minimum uniform key of an empty population (no 53-bit key reaches it).
inline constexpr std::uint64_t kNoCell = ~std::uint64_t{0};

/// Retention at the reference temperature of a row's weakest leaky and
/// weakest normal cell, given each population's minimum 53-bit uniform key
/// (kNoCell for an empty population); the smaller of the two, seconds.
[[nodiscard]] double retention_floor_seconds(const DisturbParams& params,
                                             std::uint64_t min_leaky_key,
                                             std::uint64_t min_normal_key);

/// Minimum cell retention of a row at the reference temperature, seconds,
/// from the row's hash prefixes and its leaky plane (fill_membership_plane
/// of prefixes.leaky). The scan hashes each cell's retention uniform once
/// and hands it to `visit(bit, leaky, key)`, where util::to_unit(key << 11)
/// is the uniform, so a caller that needs every key pays no second pass.
template <typename Visit>
[[nodiscard]] double min_retention_ref_seconds(
    const DisturbParams& params, const FaultModel::RowHashPrefixes& prefixes,
    std::span<const std::uint64_t> leaky_plane, Visit&& visit) {
  // to_unit is exact and monotone, so the minimum key gives the minimum
  // uniform bit for bit.
  std::uint64_t min_leaky = kNoCell;
  std::uint64_t min_normal = kNoCell;
  for (std::size_t w = 0; w < leaky_plane.size(); ++w) {
    const std::uint64_t plane = leaky_plane[w];
    const std::uint64_t base = static_cast<std::uint64_t>(w) << 6;
    for (std::uint64_t b = 0; b < 64; ++b) {
      const bool leaky = (plane >> b) & 1u;
      const std::uint64_t key =
          util::mix64((leaky ? prefixes.leaky_retention
                             : prefixes.normal_retention) ^
                      (base + b)) >>
          11;
      visit(base + b, leaky, key);
      if (leaky) {
        min_leaky = std::min(min_leaky, key);
      } else {
        min_normal = std::min(min_normal, key);
      }
    }
  }
  return retention_floor_seconds(params, min_leaky, min_normal);
}

/// The same floor for one row of `model`, filling the leaky plane itself.
[[nodiscard]] double min_retention_ref_seconds(const FaultModel& model,
                                               const dram::BankAddress& bank,
                                               int physical_row);

}  // namespace hbmrd::disturb
