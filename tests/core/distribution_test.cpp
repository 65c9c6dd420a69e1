// Unit tests for moments, quantiles, empirical CDFs, and the plug-in
// order-statistic estimator.
#include "core/distribution.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"

namespace eio::stats {
namespace {

TEST(MomentsTest, KnownSmallSample) {
  std::vector<double> s{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  Moments m = compute_moments(s);
  EXPECT_EQ(m.count, 8u);
  EXPECT_DOUBLE_EQ(m.mean, 5.0);
  // Population variance is 4; sample (n-1) variance is 32/7.
  EXPECT_NEAR(m.variance, 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(m.stddev, std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(MomentsTest, EmptyAndSingle) {
  Moments empty = compute_moments(std::vector<double>{});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.mean, 0.0);
  Moments one = compute_moments(std::vector<double>{3.5});
  EXPECT_EQ(one.count, 1u);
  EXPECT_DOUBLE_EQ(one.mean, 3.5);
  EXPECT_DOUBLE_EQ(one.variance, 0.0);
}

TEST(MomentsTest, SymmetricSampleHasZeroSkew) {
  std::vector<double> s{-2, -1, 0, 1, 2};
  Moments m = compute_moments(s);
  EXPECT_NEAR(m.skewness, 0.0, 1e-12);
}

TEST(MomentsTest, RightSkewedSampleHasPositiveSkew) {
  std::vector<double> s{1, 1, 1, 1, 1, 1, 1, 10};
  EXPECT_GT(compute_moments(s).skewness, 1.0);
}

TEST(MomentsTest, GaussianSampleMatchesTheory) {
  rng::Stream r(5);
  std::vector<double> s;
  for (int i = 0; i < 100000; ++i) s.push_back(3.0 + 2.0 * r.normal());
  Moments m = compute_moments(s);
  EXPECT_NEAR(m.mean, 3.0, 0.03);
  EXPECT_NEAR(m.stddev, 2.0, 0.03);
  EXPECT_NEAR(m.skewness, 0.0, 0.05);
  EXPECT_NEAR(m.kurtosis_excess, 0.0, 0.1);
  EXPECT_NEAR(m.cv(), 2.0 / 3.0, 0.02);
}

TEST(DistributionTest, SortedAndMinMax) {
  EmpiricalDistribution d({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
  EXPECT_DOUBLE_EQ(d.max(), 3.0);
  EXPECT_EQ(d.size(), 3u);
  EXPECT_TRUE(std::is_sorted(d.sorted().begin(), d.sorted().end()));
}

TEST(DistributionTest, QuantileInterpolates) {
  EmpiricalDistribution d({0.0, 10.0});
  EXPECT_DOUBLE_EQ(d.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.25), 2.5);
}

TEST(DistributionTest, MedianOfOddSample) {
  EmpiricalDistribution d({5.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(d.median(), 3.0);
}

TEST(DistributionTest, CdfStepFunction) {
  EmpiricalDistribution d({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(d.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(d.cdf(2.5), 0.5);
  EXPECT_DOUBLE_EQ(d.cdf(100.0), 1.0);
}

TEST(DistributionTest, CdfMonotoneProperty) {
  rng::Stream r(9);
  std::vector<double> s;
  for (int i = 0; i < 500; ++i) s.push_back(r.lognormal(0.0, 1.0));
  EmpiricalDistribution d(std::move(s));
  double prev = -1.0;
  for (double x = 0.0; x < 20.0; x += 0.1) {
    double f = d.cdf(x);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

TEST(DistributionTest, ExpectedMaxOfOneIsMean) {
  EmpiricalDistribution d({1.0, 2.0, 3.0, 4.0});
  EXPECT_NEAR(d.expected_max_of(1), d.mean(), 1e-12);
}

TEST(DistributionTest, ExpectedMaxGrowsWithN) {
  rng::Stream r(11);
  std::vector<double> s;
  for (int i = 0; i < 2000; ++i) s.push_back(r.normal());
  EmpiricalDistribution d(std::move(s));
  double prev = d.expected_max_of(1);
  for (std::size_t n : {2u, 8u, 64u, 512u}) {
    double e = d.expected_max_of(n);
    EXPECT_GT(e, prev);
    prev = e;
  }
  EXPECT_LE(prev, d.max());
}

TEST(DistributionTest, ExpectedMaxLargeNApproachesSampleMax) {
  EmpiricalDistribution d({1.0, 2.0, 3.0});
  EXPECT_NEAR(d.expected_max_of(100000), 3.0, 1e-6);
}

TEST(DistributionTest, SelectQuantileMatchesSortedQuantileExactly) {
  // Selection must return the sorted path's value bit for bit — ties,
  // interpolation, both ends — since summaries print it.
  rng::Stream r(13);
  for (std::size_t n : {1u, 2u, 3u, 7u, 64u, 1001u}) {
    std::vector<double> xs;
    for (std::size_t i = 0; i < n; ++i) {
      // Half coarse values, so samples tie; half continuous.
      xs.push_back(i % 2 == 0 ? std::round(r.uniform() * 20.0) / 8.0
                              : r.lognormal(0.0, 1.0));
    }
    const EmpiricalDistribution d(xs);
    for (double q : {0.0, 0.01, 0.25, 0.5, 0.95, 0.99, 0.999, 1.0}) {
      EXPECT_EQ(select_quantile(xs, q), d.quantile(q)) << n << " q=" << q;
    }
  }
  EXPECT_THROW((void)select_quantile({}, 0.5), std::exception);
  EXPECT_THROW((void)select_quantile({1.0}, 1.5), std::exception);
}

TEST(DistributionTest, QuantileOutOfRangeThrows) {
  EmpiricalDistribution d({1.0});
  EXPECT_THROW((void)d.quantile(-0.1), std::logic_error);
  EXPECT_THROW((void)d.quantile(1.1), std::logic_error);
}

TEST(DistributionTest, EmptyDistributionGuards) {
  EmpiricalDistribution d;
  EXPECT_TRUE(d.empty());
  EXPECT_THROW((void)d.min(), std::logic_error);
  EXPECT_THROW((void)d.quantile(0.5), std::logic_error);
  EXPECT_DOUBLE_EQ(d.cdf(1.0), 0.0);
}

}  // namespace
}  // namespace eio::stats
