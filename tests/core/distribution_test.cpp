// Unit tests for moments, quantiles, empirical CDFs, and the plug-in
// order-statistic estimator.
#include "core/distribution.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <string>
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
  for (std::size_t n : {1u, 2u, 3u, 7u, 64u, 1001u, 65536u}) {
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

/// McIlroy's adversary ("A Killer Adversary for Quicksort", 1999),
/// played against select_kth: every element starts as "gas", above
/// every solid value, and a comparison of two gas elements freezes
/// one of them to the next solid value — preferring the last gas
/// element seen, the likely pivot. Pivots therefore freeze low, each
/// partition peels off a value or two, and the routine runs through
/// its depth budget. Frozen values replayed as plain doubles drive
/// the double instantiation down the same path.
struct Adversary {
  std::vector<std::size_t> value;  ///< per element id; `gas` = unfrozen
  std::size_t gas = 0;
  std::size_t solid = 0;
  std::size_t candidate = 0;
  std::size_t comparisons = 0;

  bool less(std::size_t x, std::size_t y) {
    ++comparisons;
    if (value[x] == gas && value[y] == gas) {
      value[x == candidate ? x : y] = solid++;
    }
    if (value[x] == gas) {
      candidate = x;
    } else if (value[y] == gas) {
      candidate = y;
    }
    return value[x] < value[y];
  }
};

Adversary* g_adversary = nullptr;

struct GasElement {
  std::size_t id;
  friend bool operator<(const GasElement& a, const GasElement& b) {
    return g_adversary->less(a.id, b.id);
  }
};

/// An input of size n built against select_kth(v, n, k).
std::vector<double> adversarial_input(std::size_t n, std::size_t k,
                                      std::size_t* comparisons) {
  Adversary adv;
  adv.gas = n;
  adv.candidate = n;
  adv.value.assign(n, n);
  std::vector<GasElement> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i].id = i;
  g_adversary = &adv;
  select_kth(v.data(), n, k);
  g_adversary = nullptr;
  *comparisons = adv.comparisons;
  return {adv.value.begin(), adv.value.end()};
}

void expect_selects(std::vector<double> v, std::size_t k,
                    const std::vector<double>& sorted,
                    const std::string& what) {
  select_kth(v.data(), v.size(), k);
  ASSERT_EQ(v[k], sorted[k]) << what << " k=" << k;
  for (std::size_t i = 0; i < k; ++i) {
    ASSERT_LE(v[i], v[k]) << what << " k=" << k << " i=" << i;
  }
  for (std::size_t i = k + 1; i < v.size(); ++i) {
    ASSERT_GE(v[i], v[k]) << what << " k=" << k << " i=" << i;
  }
  std::sort(v.begin(), v.end());
  ASSERT_EQ(v, sorted) << what << ": not a permutation of the input";
}

TEST(DistributionTest, SelectKthMatchesSortedOrderStatistic) {
  rng::Stream r(17);
  auto inputs = [&r](std::size_t n) {
    std::vector<std::pair<std::string, std::vector<double>>> out;
    std::vector<double> v(n);
    for (double& x : v) x = r.lognormal(0.0, 1.0);
    out.emplace_back("random", v);
    out.emplace_back("all-equal", std::vector<double>(n, 0.25));
    for (double& x : v) x = std::floor(r.uniform() * 3.0);
    out.emplace_back("few-distinct", v);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
    out.emplace_back("sorted", v);
    std::reverse(v.begin(), v.end());
    out.emplace_back("reverse-sorted", v);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<double>(std::min(i, n - 1 - i));
    }
    out.emplace_back("organ-pipe", v);
    return out;
  };
  for (std::size_t n = 1; n <= 64; ++n) {
    for (const auto& [what, v] : inputs(n)) {
      std::vector<double> sorted = v;
      std::sort(sorted.begin(), sorted.end());
      for (std::size_t k = 0; k < n; ++k) {
        expect_selects(v, k, sorted, what + " n=" + std::to_string(n));
      }
    }
  }
  for (std::size_t n : {65u, 100u, 1000u, 4097u, 65536u, 70000u}) {
    for (const auto& [what, v] : inputs(n)) {
      std::vector<double> sorted = v;
      std::sort(sorted.begin(), sorted.end());
      for (std::size_t k : {std::size_t{0}, std::size_t{1}, n / 4, (n - 1) / 2,
                            n / 2, n - 2, n - 1,
                            static_cast<std::size_t>(r.uniform() * n)}) {
        expect_selects(v, k, sorted, what + " n=" + std::to_string(n));
      }
    }
  }
  // Built against the routine itself: partitions degenerate until the
  // depth budget hands the rest to std::nth_element.
  for (std::size_t n : {1000u, 4096u}) {
    const std::size_t k = n / 2;
    std::size_t comparisons = 0;
    const std::vector<double> v = adversarial_input(n, k, &comparisons);
    EXPECT_GT(comparisons, 8 * n) << "n=" << n << ": the adversary lost";
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    expect_selects(v, k, sorted, "adversarial n=" + std::to_string(n));
  }
  EXPECT_THROW(select_kth(static_cast<double*>(nullptr), 0, 0),
               std::exception);
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
