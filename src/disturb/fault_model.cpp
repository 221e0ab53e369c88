#include "disturb/fault_model.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/rng.h"

namespace hbmrd::disturb {

namespace {

using hbmrd::util::hash_key;
using hbmrd::util::normal;
using hbmrd::util::uniform;

/// Hash-domain tags so that different per-cell properties never share a key.
enum Tag : std::uint64_t {
  kTagDie = 0x01,
  kTagChannel = 0x02,
  kTagBank = 0x03,
  kTagRowMedian = 0x04,
  kTagRowSigma = 0x05,
  kTagCellZ = 0x06,
  kTagOrientation = 0x07,
  kTagLeaky = 0x08,
  kTagLeakyRetention = 0x09,
  kTagNormalRetention = 0x0a,
  kTagPowerOn = 0x0b,
  kTagWeakCell = 0x0c,
  kTagDensityJitter = 0x0d,
  kTagOutlierCell = 0x0e,
};

/// Packs a bank address into one integer for hashing.
constexpr std::uint64_t bank_key(const dram::BankAddress& b) noexcept {
  return (static_cast<std::uint64_t>(b.channel) << 16) |
         (static_cast<std::uint64_t>(b.pseudo_channel) << 8) |
         static_cast<std::uint64_t>(b.bank);
}

/// tAggON amplification anchors: (on-time seconds, dose factor). Calibrated
/// against the paper's aggregates (DESIGN.md Sec. 4):
///   * Fig. 12 / Obsv. 21: mean BER 0.08 / 0.24 / 0.40 / 0.73 / 31 / 50 (%)
///     at 29 / 58 / 87 / 116 ns / 3.9 us / 35.1 us with 150K hammers,
///   * Fig. 13 / Obsv. 23: mean HC_first shrinks ~55x at tREFI, ~222x at
///     9*tREFI, and reaches 1 at 16 ms.
/// Interpolation is piecewise-linear in log-log space.
constexpr std::array<std::pair<double, double>, 7> kTAggOnAnchors = {{
    {30.0e-9, 1.0},
    {58.0e-9, 1.6},
    {87.0e-9, 2.2},
    {116.0e-9, 2.9},
    {3.9e-6, 55.0},
    {35.1e-6, 222.0},
    {16.0e-3, 2.0e5},
}};

/// Integer membership threshold: (hash >> 11) < membership_threshold(f) is
/// exactly equivalent to to_unit(hash) < f, keeping the plane fills
/// branchless and free of int->double conversions.
std::uint64_t membership_threshold(double fraction) noexcept {
  // to_unit(h) = (h >> 11) * 2^-53, so to_unit(h) < f is equivalent to
  // (h >> 11) < ceil(f * 2^53): the power-of-two scaling is exact, and for
  // integer k and real t, k < t iff k < ceil(t).
  if (!(fraction > 0.0)) return 0;
  if (fraction >= 1.0) return std::uint64_t{1} << 53;
  return static_cast<std::uint64_t>(std::ceil(fraction * 0x1p53));
}

}  // namespace

FaultModel::FaultModel(const DisturbParams& params) : p_(params) {
  const double process_margin =
      std::exp(-5.0 * (p_.sigma_die + p_.sigma_channel + p_.sigma_bank +
                       p_.sigma_row));
  const double cell_margin =
      std::exp(-6.0 * std::max(p_.outlier_sigma, p_.sigma_cell_max));
  threshold_floor_ =
      p_.t_base * p_.chip_factor * process_margin * cell_margin;
}

RowContext FaultModel::row_context(const dram::BankAddress& bank,
                                   int physical_row) const {
  RowContext ctx;

  // Threshold scale: process-variation hierarchy, spatially uniform within
  // a bank (the spatial structure lives in the density below).
  const int die = dram::die_of_channel(bank.channel);
  const double die_f = std::exp(p_.sigma_die * normal(p_.seed, kTagDie, die));
  const double ch_f =
      std::exp(p_.sigma_channel * normal(p_.seed, kTagChannel, bank.channel));
  const double bank_f =
      std::exp(p_.sigma_bank * normal(p_.seed, kTagBank, bank_key(bank)));
  const double row_f = std::exp(
      p_.sigma_row *
      normal(p_.seed, kTagRowMedian, bank_key(bank), physical_row));
  ctx.weak_median =
      p_.t_base * p_.chip_factor * die_f * ch_f * bank_f * row_f;
  ctx.bulk_median = ctx.weak_median * p_.bulk_multiplier;

  const double sigma_u =
      uniform(p_.seed, kTagRowSigma, bank_key(bank), physical_row);
  ctx.weak_sigma =
      p_.sigma_cell_min + (p_.sigma_cell_max - p_.sigma_cell_min) * sigma_u;
  ctx.bulk_sigma = p_.bulk_sigma;
  ctx.outlier_median = ctx.weak_median;
  ctx.outlier_sigma = p_.outlier_sigma;

  // Weak-cell density: quadratic in the spatial vulnerability, with
  // per-row lognormal jitter.
  const int sa = dram::subarray_of_row(physical_row);
  const double frac =
      static_cast<double>(dram::position_in_subarray(physical_row)) /
      static_cast<double>(dram::subarray_size(sa) - 1);
  const double vulnerability = 1.0 - p_.position_swing / 2.0 +
                               p_.position_swing * std::sin(M_PI * frac);
  const double resilient_divisor = dram::is_resilient_subarray(sa)
                                       ? p_.resilient_subarray_factor
                                       : 1.0;
  const double jitter = std::exp(
      p_.weak_density_sigma *
      normal(p_.seed, kTagDensityJitter, bank_key(bank), physical_row));
  ctx.weak_density =
      std::min(0.25, p_.weak_fraction * vulnerability * vulnerability *
                         jitter / (resilient_divisor * resilient_divisor));
  return ctx;
}

bool FaultModel::is_weak_cell(const dram::BankAddress& bank, int physical_row,
                              int bit, double weak_density) const {
  return uniform(p_.seed, kTagWeakCell, bank_key(bank), physical_row, bit) <
         weak_density;
}

bool FaultModel::is_outlier_cell(const dram::BankAddress& bank,
                                 int physical_row, int bit) const {
  return uniform(p_.seed, kTagOutlierCell, bank_key(bank), physical_row,
                 bit) < p_.outlier_fraction;
}

double FaultModel::cell_threshold(const dram::BankAddress& bank,
                                  int physical_row, int bit) const {
  const RowContext ctx = row_context(bank, physical_row);
  double median = ctx.bulk_median;
  double sigma = ctx.bulk_sigma;
  if (is_outlier_cell(bank, physical_row, bit)) {
    median = ctx.outlier_median;
    sigma = ctx.outlier_sigma;
  } else if (is_weak_cell(bank, physical_row, bit, ctx.weak_density)) {
    median = ctx.weak_median;
    sigma = ctx.weak_sigma;
  }
  const double z =
      normal(p_.seed, kTagCellZ, bank_key(bank), physical_row, bit);
  return median * std::exp(sigma * z);
}

bool FaultModel::is_true_cell(const dram::BankAddress& bank, int physical_row,
                              int bit) const {
  return uniform(p_.seed, kTagOrientation, bank_key(bank), physical_row,
                 bit) < p_.true_cell_fraction;
}

double FaultModel::retention_seconds(const dram::BankAddress& bank,
                                     int physical_row, int bit,
                                     double temperature_c) const {
  const bool leaky = is_leaky_cell(bank, physical_row, bit);
  const double sigma = retention_sigma(leaky);
  const double z = util::inverse_normal_cdf(
      std::max(1e-300, retention_uniform(bank, physical_row, bit, leaky)));
  return retention_median_seconds(leaky, temperature_c) *
         std::exp(sigma * z);
}

double FaultModel::taggon_factor(dram::Cycle on_cycles) const {
  // Real programs use a handful of distinct on-times (tRAS plus a few
  // RowPress settings), and the hammer paths evaluate this per step; the
  // memo turns the log/exp interpolation into a scan of a tiny array.
  for (const auto& [cycles, factor] : taggon_memo_) {
    if (cycles == on_cycles) return factor;
  }
  const double result = [&] {
    const double t = dram::cycles_to_seconds(on_cycles);
    const auto& a = kTAggOnAnchors;
    if (t <= a.front().first) return a.front().second;
    for (std::size_t i = 1; i < a.size(); ++i) {
      if (t <= a[i].first || i + 1 == a.size()) {
        // Piecewise-linear in log-log space; the last segment extrapolates.
        const double x0 = std::log(a[i - 1].first);
        const double x1 = std::log(a[i].first);
        const double y0 = std::log(a[i - 1].second);
        const double y1 = std::log(a[i].second);
        const double x = std::log(t);
        return std::exp(y0 + (y1 - y0) * (x - x0) / (x1 - x0));
      }
    }
    return a.back().second;  // unreachable
  }();
  if (taggon_memo_.size() < kTaggonMemoSlots) {
    taggon_memo_.emplace_back(on_cycles, result);
  }
  return result;
}

double FaultModel::coupling(bool victim_bit, bool aggressor_bit,
                            bool intra_row_differs) const {
  const double base = (victim_bit == aggressor_bit) ? p_.coupling_same : 1.0;
  return base * (intra_row_differs ? 1.0 + p_.coupling_intra_bonus : 1.0);
}

double FaultModel::distance_factor(int distance) const {
  const int d = std::abs(distance);
  if (d == 1) return 1.0;
  if (d == 2) return p_.blast2_factor;
  return 0.0;
}

double FaultModel::temperature_vulnerability(double temperature_c) const {
  return std::max(0.1, 1.0 + p_.temp_vuln_per_c * (temperature_c - 60.0));
}

std::uint64_t FaultModel::power_on_word(const dram::BankAddress& bank,
                                        int physical_row,
                                        int word_index) const {
  return power_on_word_at(power_on_prefix(bank, physical_row), word_index);
}

std::uint64_t FaultModel::power_on_prefix(const dram::BankAddress& bank,
                                          int physical_row) const {
  return hash_key(p_.seed, kTagPowerOn, bank_key(bank), physical_row);
}

bool FaultModel::power_on_bit(const dram::BankAddress& bank, int physical_row,
                              int bit) const {
  return (power_on_word(bank, physical_row, bit >> 6) >> (bit & 63)) & 1u;
}

double FaultModel::cell_threshold_uniform(const dram::BankAddress& bank,
                                          int physical_row, int bit) const {
  return uniform(p_.seed, kTagCellZ, bank_key(bank), physical_row, bit);
}

bool FaultModel::is_leaky_cell(const dram::BankAddress& bank,
                               int physical_row, int bit) const {
  return uniform(p_.seed, kTagLeaky, bank_key(bank), physical_row, bit) <
         p_.leaky_cell_fraction;
}

double FaultModel::retention_uniform(const dram::BankAddress& bank,
                                     int physical_row, int bit,
                                     bool leaky) const {
  return leaky ? uniform(p_.seed, kTagLeakyRetention, bank_key(bank),
                         physical_row, bit)
               : uniform(p_.seed, kTagNormalRetention, bank_key(bank),
                         physical_row, bit);
}

double FaultModel::retention_median_seconds(bool leaky,
                                            double temperature_c) const {
  const double base =
      leaky ? p_.leaky_retention_median_s : p_.normal_retention_median_s;
  const double exponent =
      (p_.retention_ref_temp_c - temperature_c) / p_.retention_halving_c;
  return base * std::exp2(exponent);
}

double FaultModel::normal_cdf(double z) {
  return 0.5 * std::erfc(-z * M_SQRT1_2);
}

FaultModel::RowHashPrefixes FaultModel::row_hash_prefixes(
    const dram::BankAddress& bank, int physical_row) const {
  const std::uint64_t bk = bank_key(bank);
  RowHashPrefixes p;
  p.orientation = hash_key(p_.seed, kTagOrientation, bk, physical_row);
  p.outlier = hash_key(p_.seed, kTagOutlierCell, bk, physical_row);
  p.weak = hash_key(p_.seed, kTagWeakCell, bk, physical_row);
  p.cell_threshold = hash_key(p_.seed, kTagCellZ, bk, physical_row);
  p.leaky = hash_key(p_.seed, kTagLeaky, bk, physical_row);
  p.leaky_retention = hash_key(p_.seed, kTagLeakyRetention, bk, physical_row);
  p.normal_retention =
      hash_key(p_.seed, kTagNormalRetention, bk, physical_row);
  return p;
}

void FaultModel::fill_membership_plane(std::uint64_t prefix, double fraction,
                                       std::span<std::uint64_t> out) noexcept {
  const std::uint64_t threshold = membership_threshold(fraction);
  for (std::size_t w = 0; w < out.size(); ++w) {
    const std::uint64_t base = static_cast<std::uint64_t>(w) << 6;
    std::uint64_t word = 0;
    for (std::uint64_t b = 0; b < 64; ++b) {
      const std::uint64_t h = util::mix64(prefix ^ (base + b));
      word |= static_cast<std::uint64_t>((h >> 11) < threshold) << b;
    }
    out[w] = word;
  }
}

void FaultModel::fill_uniform_row(std::uint64_t prefix,
                                  std::span<double> out) noexcept {
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = util::to_unit(util::mix64(prefix ^ static_cast<std::uint64_t>(i)));
  }
}

void FaultModel::fill_retention_uniform_row(
    std::uint64_t leaky_prefix, std::uint64_t normal_prefix,
    std::span<const std::uint64_t> leaky_plane,
    std::span<double> out) noexcept {
  for (std::size_t w = 0; w < leaky_plane.size(); ++w) {
    const std::uint64_t plane = leaky_plane[w];
    const std::uint64_t base = static_cast<std::uint64_t>(w) << 6;
    for (std::uint64_t b = 0; b < 64 && base + b < out.size(); ++b) {
      const std::uint64_t prefix =
          ((plane >> b) & 1u) ? leaky_prefix : normal_prefix;
      out[base + b] = util::to_unit(util::mix64(prefix ^ (base + b)));
    }
  }
}

void FaultModel::fill_power_on_row(const dram::BankAddress& bank,
                                   int physical_row,
                                   std::span<std::uint64_t> out) const {
  const std::uint64_t prefix = power_on_prefix(bank, physical_row);
  for (std::size_t w = 0; w < out.size(); ++w) {
    out[w] = power_on_word_at(prefix, static_cast<int>(w));
  }
}

}  // namespace hbmrd::disturb
