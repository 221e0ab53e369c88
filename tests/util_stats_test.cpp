#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace hbmrd::util {
namespace {

const std::vector<double> kSample = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};

TEST(Moments, MeanVarianceStddev) {
  EXPECT_DOUBLE_EQ(mean(kSample), 5.0);
  EXPECT_DOUBLE_EQ(variance(kSample), 4.0);  // classic textbook sample
  EXPECT_DOUBLE_EQ(stddev(kSample), 2.0);
}

TEST(Moments, CoefficientOfVariation) {
  EXPECT_DOUBLE_EQ(coefficient_of_variation(kSample), 0.4);
  const std::vector<double> zeros = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(coefficient_of_variation(zeros), 0.0);
}

TEST(Moments, EmptyInputThrows) {
  const std::vector<double> empty;
  EXPECT_THROW((void)mean(empty), std::invalid_argument);
  EXPECT_THROW((void)variance(empty), std::invalid_argument);
  EXPECT_THROW((void)percentile(empty, 50), std::invalid_argument);
  EXPECT_THROW((void)min_of(empty), std::invalid_argument);
  EXPECT_THROW((void)max_of(empty), std::invalid_argument);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 2.5);
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
  EXPECT_THROW((void)percentile(xs, -1), std::invalid_argument);
  EXPECT_THROW((void)percentile(xs, 101), std::invalid_argument);
}

TEST(Percentile, UnsortedInputHandled) {
  const std::vector<double> xs = {9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(median(xs), 5.0);
  EXPECT_DOUBLE_EQ(min_of(xs), 1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 9.0);
}

TEST(Pearson, PerfectAndInverseCorrelation) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const std::vector<double> ys = {2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  const std::vector<double> inv = {10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, inv), -1.0, 1e-12);
}

TEST(Pearson, UncorrelatedAndDegenerate) {
  const std::vector<double> xs = {1, 2, 3, 4};
  const std::vector<double> flat = {5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(pearson(xs, flat), 0.0);
  const std::vector<double> short_ys = {1, 2};
  EXPECT_THROW((void)pearson(xs, short_ys), std::invalid_argument);
}

TEST(Polyfit, RecoversExactPolynomial) {
  // y = 3 - 2x + 0.5x^2
  std::vector<double> xs, ys;
  for (int i = 0; i < 12; ++i) {
    const double x = i * 0.7 - 3.0;
    xs.push_back(x);
    ys.push_back(3.0 - 2.0 * x + 0.5 * x * x);
  }
  const auto coeffs = polyfit(xs, ys, 2);
  ASSERT_EQ(coeffs.size(), 3u);
  EXPECT_NEAR(coeffs[0], 3.0, 1e-9);
  EXPECT_NEAR(coeffs[1], -2.0, 1e-9);
  EXPECT_NEAR(coeffs[2], 0.5, 1e-9);
}

TEST(Polyfit, RejectsUnderdeterminedSystems) {
  const std::vector<double> xs = {1, 2};
  const std::vector<double> ys = {1, 2};
  EXPECT_THROW((void)polyfit(xs, ys, 2), std::invalid_argument);
  const std::vector<double> bad = {1};
  EXPECT_THROW((void)polyfit(xs, bad, 1), std::invalid_argument);
}

TEST(Summary, FiveNumbersPlusMean) {
  const auto s = summarize(kSample);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.median, 4.5);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_EQ(s.n, kSample.size());
}

TEST(Summary, EmptyIsZeroed) {
  const auto s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Histogram, BinsAndClamping) {
  const std::vector<double> xs = {-1.0, 0.1, 0.5, 0.9, 5.0};
  const auto h = histogram(xs, 0.0, 1.0, 2);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0], 2u);  // -1.0 clamped in, 0.1
  EXPECT_EQ(h[1], 3u);  // 0.5, 0.9, 5.0 clamped
  EXPECT_THROW((void)histogram(xs, 1.0, 0.0, 2), std::invalid_argument);
  EXPECT_THROW((void)histogram(xs, 0.0, 1.0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace hbmrd::util
