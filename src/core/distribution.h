// Empirical distributions: moments, quantiles, CDF.
//
// "A key insight is that although the I/O rate an individual task
// observes may vary significantly from run to run, the statistical
// moments and modes of the performance distribution are reproducible."
// This class carries the moments/quantiles half of that program; modes
// live in modes.h.
#pragma once

#include <span>
#include <vector>

#include "common/check.h"

namespace eio::stats {

/// Central and standardized moments of a sample.
struct Moments {
  std::size_t count = 0;
  double mean = 0.0;
  double variance = 0.0;  ///< unbiased (n-1) sample variance
  double stddev = 0.0;
  double skewness = 0.0;  ///< standardized third moment (0 for symmetric)
  double kurtosis_excess = 0.0;  ///< standardized fourth moment - 3
  /// Coefficient of variation σ/µ — the paper's "narrowing" metric.
  [[nodiscard]] double cv() const noexcept { return mean != 0.0 ? stddev / mean : 0.0; }
};

/// Compute moments of a sample in one pass.
[[nodiscard]] Moments compute_moments(std::span<const double> samples);

/// EmpiricalDistribution(samples).quantile(q), value for value, by
/// selection instead of a full sort: O(n) rather than O(n log n) plus
/// a moments pass, for callers that want a few quantiles of a large
/// sample. Takes the sample by value (selection reorders it).
[[nodiscard]] double select_quantile(std::vector<double> samples, double q);

/// A sorted copy of a sample supporting quantile/CDF queries.
class EmpiricalDistribution {
 public:
  EmpiricalDistribution() = default;
  explicit EmpiricalDistribution(std::vector<double> samples);

  [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }
  [[nodiscard]] bool empty() const noexcept { return sorted_.empty(); }
  [[nodiscard]] const std::vector<double>& sorted() const noexcept { return sorted_; }

  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] const Moments& moments() const noexcept { return moments_; }
  [[nodiscard]] double mean() const noexcept { return moments_.mean; }
  [[nodiscard]] double stddev() const noexcept { return moments_.stddev; }

  /// Interpolated quantile, q in [0, 1].
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

  /// Empirical CDF: fraction of samples <= x.
  [[nodiscard]] double cdf(double x) const;

  /// Plug-in estimate of E[max of n iid draws] from this distribution:
  /// E ≈ Σ_i x_(i) * (F(x_(i))^n - F(x_(i-1))^n) over the sorted sample.
  [[nodiscard]] double expected_max_of(std::size_t n) const;

 private:
  std::vector<double> sorted_;
  Moments moments_;
};

}  // namespace eio::stats
