// Two-sample Kolmogorov–Smirnov comparison.
//
// The paper's reproducibility claim — "the statistical representations
// are almost identical" across runs and even across file systems
// (Figure 1c, scratch vs scratch2) — needs a quantitative footing.
// The two-sample KS statistic (sup-norm distance between empirical
// CDFs) with its asymptotic significance level provides it.
#pragma once

#include <span>

namespace eio::stats {

/// Result of a two-sample KS comparison.
struct KsResult {
  double statistic = 0.0;  ///< sup_x |F1(x) - F2(x)|
  double p_value = 1.0;    ///< asymptotic two-sided significance
};

/// Compare two samples. Both must be non-empty.
[[nodiscard]] KsResult ks_two_sample(std::span<const double> a,
                                     std::span<const double> b);

/// ks_two_sample over samples already sorted ascending, for callers
/// that compare one sample against many (or keep it sorted anyway):
/// the same result without the two copies and sorts.
[[nodiscard]] KsResult ks_two_sample_sorted(std::span<const double> sorted_a,
                                            std::span<const double> sorted_b);

/// Kolmogorov distribution survival function Q(λ) = 2 Σ (-1)^{j-1}
/// exp(-2 j² λ²) — exposed for tests.
[[nodiscard]] double kolmogorov_q(double lambda);

}  // namespace eio::stats
