#include "core/ks.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"

namespace eio::stats {

double kolmogorov_q(double lambda) {
  if (lambda <= 0.0) return 1.0;
  double sum = 0.0;
  double sign = 1.0;
  for (int j = 1; j <= 100; ++j) {
    double term = std::exp(-2.0 * j * j * lambda * lambda);
    sum += sign * term;
    sign = -sign;
    if (term < 1e-12) break;
  }
  return std::clamp(2.0 * sum, 0.0, 1.0);
}

KsResult ks_two_sample(std::span<const double> a, std::span<const double> b) {
  EIO_CHECK(!a.empty() && !b.empty());
  std::vector<double> sa(a.begin(), a.end());
  std::vector<double> sb(b.begin(), b.end());
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  return ks_two_sample_sorted(sa, sb);
}

KsResult ks_two_sample_sorted(std::span<const double> sa,
                              std::span<const double> sb) {
  EIO_CHECK(!sa.empty() && !sb.empty());
  double d = 0.0;
  std::size_t i = 0, j = 0;
  auto na = static_cast<double>(sa.size());
  auto nb = static_cast<double>(sb.size());
  while (i < sa.size() && j < sb.size()) {
    double x = std::min(sa[i], sb[j]);
    while (i < sa.size() && sa[i] <= x) ++i;
    while (j < sb.size() && sb[j] <= x) ++j;
    double fa = static_cast<double>(i) / na;
    double fb = static_cast<double>(j) / nb;
    d = std::max(d, std::abs(fa - fb));
  }

  double ne = na * nb / (na + nb);
  double lambda = (std::sqrt(ne) + 0.12 + 0.11 / std::sqrt(ne)) * d;
  return {d, kolmogorov_q(lambda)};
}

}  // namespace eio::stats
