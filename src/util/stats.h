// Small statistics toolkit used by the characterization library and the
// benchmark harnesses: moments, order statistics, correlation, least-squares
// polynomial fits, and box-plot style five-number summaries.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace hbmrd::util {

[[nodiscard]] double mean(std::span<const double> xs);
[[nodiscard]] double variance(std::span<const double> xs);  // population
[[nodiscard]] double stddev(std::span<const double> xs);

/// Coefficient of variation: stddev normalized to the mean (paper Sec. 4.3).
[[nodiscard]] double coefficient_of_variation(std::span<const double> xs);

[[nodiscard]] double min_of(std::span<const double> xs);
[[nodiscard]] double max_of(std::span<const double> xs);

/// Linear-interpolated percentile, q in [0, 100].
[[nodiscard]] double percentile(std::span<const double> xs, double q);
[[nodiscard]] double median(std::span<const double> xs);

/// Pearson product-moment correlation coefficient.
[[nodiscard]] double pearson(std::span<const double> xs,
                             std::span<const double> ys);

/// Least-squares polynomial fit of the given degree; returns coefficients
/// c[0] + c[1] x + ... + c[degree] x^degree. Solved via normal equations
/// with Gaussian elimination (adequate for the low degrees we use).
[[nodiscard]] std::vector<double> polyfit(std::span<const double> xs,
                                          std::span<const double> ys,
                                          std::size_t degree);

/// Five-number summary plus mean, as used for the paper's box plots.
struct Summary {
  double min = 0, q1 = 0, median = 0, q3 = 0, max = 0, mean = 0;
  std::size_t n = 0;
};

[[nodiscard]] Summary summarize(std::span<const double> xs);

/// Fixed-width histogram over [lo, hi) with `bins` buckets; values outside
/// the range are clamped into the first/last bucket.
[[nodiscard]] std::vector<std::size_t> histogram(std::span<const double> xs,
                                                 double lo, double hi,
                                                 std::size_t bins);

}  // namespace hbmrd::util
