#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace hbmrd::util {

namespace {

void require_nonempty(std::span<const double> xs, const char* what) {
  if (xs.empty()) {
    throw std::invalid_argument(std::string(what) +
                                ": empty input distribution");
  }
}

}  // namespace

double mean(std::span<const double> xs) {
  require_nonempty(xs, "mean");
  double sum = 0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  require_nonempty(xs, "variance");
  const double m = mean(xs);
  double acc = 0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double coefficient_of_variation(std::span<const double> xs) {
  const double m = mean(xs);
  if (m == 0.0) return 0.0;
  return stddev(xs) / m;
}

double min_of(std::span<const double> xs) {
  require_nonempty(xs, "min_of");
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(std::span<const double> xs) {
  require_nonempty(xs, "max_of");
  return *std::max_element(xs.begin(), xs.end());
}

double percentile(std::span<const double> xs, double q) {
  require_nonempty(xs, "percentile");
  if (q < 0.0 || q > 100.0) {
    throw std::invalid_argument("percentile: q outside [0, 100]");
  }
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double pearson(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("pearson: size mismatch");
  }
  require_nonempty(xs, "pearson");
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::vector<double> polyfit(std::span<const double> xs,
                            std::span<const double> ys, std::size_t degree) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("polyfit: size mismatch");
  }
  if (xs.size() <= degree) {
    throw std::invalid_argument("polyfit: need more points than degree");
  }
  const std::size_t n = degree + 1;

  // Normal equations: A^T A c = A^T y with A_{ij} = x_i^j.
  // Precompute power sums S_k = sum x^k for k in [0, 2*degree].
  std::vector<double> s(2 * degree + 1, 0.0);
  for (double x : xs) {
    double p = 1.0;
    for (std::size_t k = 0; k < s.size(); ++k, p *= x) s[k] += p;
  }
  std::vector<double> rhs(n, 0.0);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    double p = 1.0;
    for (std::size_t j = 0; j < n; ++j, p *= xs[i]) rhs[j] += ys[i] * p;
  }
  // Dense n x n system, Gaussian elimination with partial pivoting.
  std::vector<std::vector<double>> m(n, std::vector<double>(n + 1, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) m[i][j] = s[i + j];
    m[i][n] = rhs[i];
  }
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::fabs(m[r][col]) > std::fabs(m[pivot][col])) pivot = r;
    }
    std::swap(m[col], m[pivot]);
    if (std::fabs(m[col][col]) < 1e-30) {
      throw std::runtime_error("polyfit: singular system");
    }
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const double f = m[r][col] / m[col][col];
      for (std::size_t c = col; c <= n; ++c) m[r][c] -= f * m[col][c];
    }
  }
  std::vector<double> coeffs(n);
  for (std::size_t i = 0; i < n; ++i) coeffs[i] = m[i][n] / m[i][i];
  return coeffs;
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.n = xs.size();
  if (xs.empty()) return s;
  s.min = min_of(xs);
  s.q1 = percentile(xs, 25.0);
  s.median = median(xs);
  s.q3 = percentile(xs, 75.0);
  s.max = max_of(xs);
  s.mean = mean(xs);
  return s;
}

std::vector<std::size_t> histogram(std::span<const double> xs, double lo,
                                   double hi, std::size_t bins) {
  if (bins == 0 || !(lo < hi)) {
    throw std::invalid_argument("histogram: bad bins or range");
  }
  std::vector<std::size_t> counts(bins, 0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (double x : xs) {
    auto bin = static_cast<long>((x - lo) / width);
    bin = std::clamp<long>(bin, 0, static_cast<long>(bins) - 1);
    ++counts[static_cast<std::size_t>(bin)];
  }
  return counts;
}

}  // namespace hbmrd::util
