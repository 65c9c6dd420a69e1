#include "core/distribution.h"

#include <algorithm>
#include <cmath>

#include "core/streaming.h"

namespace eio::stats {

Moments compute_moments(std::span<const double> samples) {
  // Thin wrapper over the incremental kernel, so batch and streaming
  // paths share one numerical implementation.
  StreamingMoments acc;
  for (double s : samples) acc.add(s);
  return acc.moments();
}

EmpiricalDistribution::EmpiricalDistribution(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
  moments_ = compute_moments(sorted_);
}

double EmpiricalDistribution::min() const {
  EIO_CHECK(!sorted_.empty());
  return sorted_.front();
}

double EmpiricalDistribution::max() const {
  EIO_CHECK(!sorted_.empty());
  return sorted_.back();
}

double EmpiricalDistribution::quantile(double q) const {
  return quantile_sorted(sorted_, q);
}

double quantile_sorted(std::span<const double> sorted, double q) {
  EIO_CHECK(!sorted.empty());
  EIO_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile out of range: " << q);
  if (sorted.size() == 1) return sorted[0];
  double pos = q * static_cast<double>(sorted.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double select_quantile(std::vector<double> samples, double q) {
  return select_quantile_inplace(samples, q);
}

double select_quantile_inplace(std::span<double> samples, double q) {
  EIO_CHECK(!samples.empty());
  EIO_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile out of range: " << q);
  // The same interpolation as EmpiricalDistribution::quantile; the two
  // order statistics it reads come from one selection (everything
  // after `lo` is >= it, so the next one is their minimum).
  const std::size_t n = samples.size();
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  select_kth(samples.data(), n, lo);
  const double a = samples[lo];
  // A whole pos puts no weight on the next order statistic (the
  // sorted path's a * 1 + b * 0 is a again for finite samples, short
  // of the sign of a zero); otherwise lo + 1 < n.
  if (frac == 0.0) return a;
  const auto next = samples.begin() + static_cast<std::ptrdiff_t>(lo) + 1;
  const double b = *std::min_element(next, samples.end());
  return a * (1.0 - frac) + b * frac;
}

double EmpiricalDistribution::cdf(double x) const {
  if (sorted_.empty()) return 0.0;
  auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double EmpiricalDistribution::expected_max_of(std::size_t n) const {
  EIO_CHECK(!sorted_.empty());
  EIO_CHECK(n >= 1);
  double expectation = 0.0;
  double prev_pow = 0.0;
  auto total = static_cast<double>(sorted_.size());
  for (std::size_t i = 0; i < sorted_.size(); ++i) {
    double cdf_here = static_cast<double>(i + 1) / total;
    double pow_here = std::pow(cdf_here, static_cast<double>(n));
    expectation += sorted_[i] * (pow_here - prev_pow);
    prev_pow = pow_here;
  }
  return expectation;
}

}  // namespace eio::stats
