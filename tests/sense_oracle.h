// Per-cell reference sense: the test oracle for dram::Bank's production
// sense (a word-parallel loop over a candidate mask built from the row's
// threshold summary).
//
// Given a row's pre-sense bits, its dose ledger, the time since its last
// restore and the chip temperature, per_cell_sense() returns the bits a
// sense must leave behind. Every cell is decided on its own through the
// FaultModel predicates and hashes, behind the same deterministic gates as
// production: the retention floor, the row's weakest-cell retention, the
// chip-wide threshold floor and the 6-sigma row floor. Production senses
// must equal it bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

#include "disturb/dose.h"
#include "disturb/fault_model.h"
#include "dram/geometry.h"
#include "dram/row_data.h"
#include "util/rng.h"

namespace hbmrd::oracle {

/// Unrefreshed time below which a sense skips retention (dram/bank.cpp).
inline constexpr double kRetentionFloorSeconds = 0.033;

/// Row floor of the disturb scan, in sigmas below the weak median.
inline constexpr double kThresholdScanSigma = 6.0;

/// Weakest cell retention of a row at the reference temperature.
inline double weakest_retention_ref_seconds(const disturb::FaultModel& fault,
                                            const dram::BankAddress& bank,
                                            int row) {
  const auto& params = fault.params();
  double min_u_leaky = 2.0;
  double min_u_normal = 2.0;
  for (int bit = 0; bit < dram::kRowBits; ++bit) {
    const bool leaky = fault.is_leaky_cell(bank, row, bit);
    const double u = fault.retention_uniform(bank, row, bit, leaky);
    double& min_u = leaky ? min_u_leaky : min_u_normal;
    min_u = std::min(min_u, u);
  }
  const auto retention = [](double median, double sigma, double u) {
    return median *
           std::exp(sigma * util::inverse_normal_cdf(std::max(1e-300, u)));
  };
  double minimum = std::numeric_limits<double>::max();
  if (min_u_leaky <= 1.0) {
    minimum = std::min(minimum, retention(params.leaky_retention_median_s,
                                          params.leaky_retention_sigma,
                                          min_u_leaky));
  }
  if (min_u_normal <= 1.0) {
    minimum = std::min(minimum, retention(params.normal_retention_median_s,
                                          params.normal_retention_sigma,
                                          min_u_normal));
  }
  return minimum;
}

/// The row's bits after one sense (see the file comment).
inline dram::RowBits per_cell_sense(const disturb::FaultModel& fault,
                                    const dram::BankAddress& bank, int row,
                                    const dram::RowBits& pre,
                                    const disturb::DoseLedger& ledger,
                                    double elapsed_s, double temperature_c) {
  const auto& params = fault.params();
  bool check_retention = elapsed_s > kRetentionFloorSeconds;
  bool check_disturb = !ledger.empty();
  if (check_retention) {
    const double min_at_temp =
        weakest_retention_ref_seconds(fault, bank, row) *
        std::exp2((params.retention_ref_temp_c - temperature_c) /
                  params.retention_halving_c);
    if (elapsed_s < min_at_temp) check_retention = false;
  }
  const double temp_vuln = fault.temperature_vulnerability(temperature_c);
  if (check_disturb) {
    double max_dose = 0.0;
    for (const auto& e : ledger.epochs()) {
      max_dose += e.dose() * fault.distance_factor(e.distance);
    }
    max_dose *= (1.0 + params.coupling_intra_bonus) * temp_vuln;
    const auto ctx = fault.row_context(bank, row);
    const double widest_sigma = std::max(ctx.weak_sigma, ctx.outlier_sigma);
    if (max_dose < fault.global_threshold_floor() ||
        max_dose < ctx.weak_median *
                       std::exp(-kThresholdScanSigma * widest_sigma)) {
      check_disturb = false;
    }
  }
  if (!check_retention && !check_disturb) return pre;

  const auto ctx = fault.row_context(bank, row);
  const auto u_max = [&](bool leaky) {
    const double median = fault.retention_median_seconds(leaky,
                                                         temperature_c);
    return disturb::FaultModel::normal_cdf(std::log(elapsed_s / median) /
                                           fault.retention_sigma(leaky));
  };
  const double leaky_u_max = check_retention ? u_max(true) : 0.0;
  const double normal_u_max = check_retention ? u_max(false) : 0.0;
  const auto probability = [&](double dose, double median, double sigma) {
    return dose > 0.0 ? disturb::FaultModel::normal_cdf(
                            std::log(dose / median) / sigma)
                      : 0.0;
  };

  dram::RowBits post = pre;
  for (int bit = 0; bit < dram::kRowBits; ++bit) {
    const bool value = pre.get(bit);
    if (!fault.is_charged(bank, row, bit, value)) continue;
    bool flip = false;
    if (check_retention) {
      const bool leaky = fault.is_leaky_cell(bank, row, bit);
      const double limit = leaky ? leaky_u_max : normal_u_max;
      flip = limit > 0.0 &&
             fault.retention_uniform(bank, row, bit, leaky) <= limit;
    }
    if (!flip && check_disturb) {
      const bool left = bit > 0 ? pre.get(bit - 1) : value;
      const bool right = bit + 1 < dram::kRowBits ? pre.get(bit + 1) : value;
      const bool intra_differs = (left != value) || (right != value);
      double dose = 0.0;
      for (const auto& e : ledger.epochs()) {
        // A null snapshot is the aggressor's power-on contents.
        const bool aggressor_value =
            e.aggressor_bits
                ? e.aggressor_bits->get(bit)
                : fault.power_on_bit(bank, row + e.distance, bit);
        dose += e.dose() * fault.distance_factor(e.distance) *
                fault.coupling(value, aggressor_value, intra_differs);
      }
      dose *= temp_vuln;
      double p = probability(dose, ctx.bulk_median, ctx.bulk_sigma);
      if (fault.is_outlier_cell(bank, row, bit)) {
        p = probability(dose, ctx.outlier_median, ctx.outlier_sigma);
      } else if (fault.is_weak_cell(bank, row, bit, ctx.weak_density)) {
        p = probability(dose, ctx.weak_median, ctx.weak_sigma);
      }
      flip = p > 0.0 && fault.cell_threshold_uniform(bank, row, bit) <= p;
    }
    if (flip) post.set(bit, !value);
  }
  return post;
}

}  // namespace hbmrd::oracle
