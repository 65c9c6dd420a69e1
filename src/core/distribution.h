// Empirical distributions: moments, quantiles, CDF.
//
// "A key insight is that although the I/O rate an individual task
// observes may vary significantly from run to run, the statistical
// moments and modes of the performance distribution are reproducible."
// This class carries the moments/quantiles half of that program; modes
// live in modes.h.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
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

namespace detail {

/// Moves every element of v[0, n) that satisfies `pred` to the front
/// (in no particular order) and returns how many did. Branch-free
/// Lomuto: every step swaps unconditionally and advances the boundary
/// by the predicate's 0 or 1, so random input costs no mispredictions.
template <class T, class Pred>
std::size_t partition_front(T* v, std::size_t n, Pred pred) {
  std::size_t front = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const T x = v[i];
    v[i] = v[front];
    v[front] = x;
    front += pred(x) ? 1 : 0;
  }
  return front;
}

template <class T>
void insertion_sort(T* v, std::size_t n) {
  for (std::size_t i = 1; i < n; ++i) {
    const T x = v[i];
    std::size_t j = i;
    for (; j > 0 && x < v[j - 1]; --j) v[j] = v[j - 1];
    v[j] = x;
  }
}

}  // namespace detail

/// Rearranges v[0, n) as std::nth_element(v, v + k, v + n) does: v[k]
/// becomes the k-th smallest element, nothing before it is greater and
/// nothing after it is smaller, so the (k+1)-th smallest is the
/// minimum of v[k+1, n). The value at v[k] is the order statistic
/// itself, so it equals sorted(v)[k] whatever the algorithm.
///
/// Branch-free Lomuto partitions around a median-of-three pivot; when
/// nothing falls below the pivot, a second branch-free pass splits off
/// the values equal to it, so inputs full of ties still shrink. Short
/// ranges finish by insertion sort, and once a depth budget of two
/// rounds per bit of n is spent, std::nth_element finishes the range,
/// which keeps adversarial inputs O(n log n). T needs only a strict
/// weak order through `<` (a template so tests can drive it with an
/// adversarial comparison type; callers select doubles).
template <class T>
void select_kth(T* v, std::size_t n, std::size_t k) {
  EIO_CHECK_MSG(k < n, "select_kth: k = " << k << " of " << n);
  constexpr std::size_t kInsertionMax = 8;
  std::size_t lo = 0;
  std::size_t hi = n;  // [lo, hi) holds position k
  for (int budget = 2 * std::bit_width(n); hi - lo > kInsertionMax;
       --budget) {
    if (budget == 0) {
      std::nth_element(v + lo, v + k, v + hi);
      return;
    }
    T* w = v + lo;
    const std::size_t m = hi - lo;
    const T p = std::max(std::min(w[0], w[m / 2]),
                         std::min(std::max(w[0], w[m / 2]), w[m - 1]));
    const std::size_t lt =
        lo + detail::partition_front(w, m, [&p](const T& x) { return x < p; });
    if (k < lt) {
      hi = lt;
    } else if (lt > lo) {
      lo = lt;
    } else {
      // Nothing below the pivot: split off its copies (at least the
      // pivot itself), which end at v[k] if k lands among them.
      const std::size_t le =
          lo + detail::partition_front(w, m,
                                       [&p](const T& x) { return !(p < x); });
      if (k < le) return;
      lo = le;
    }
  }
  detail::insertion_sort(v + lo, hi - lo);
}

/// EmpiricalDistribution(samples).quantile(q), value for value, by
/// selection instead of a full sort: O(n) rather than O(n log n) plus
/// a moments pass, for callers that want a few quantiles of a large
/// sample. Takes the sample by value (selection reorders it).
[[nodiscard]] double select_quantile(std::vector<double> samples, double q);

/// select_quantile on a caller-owned buffer, without the copy.
/// Reorders `samples`.
[[nodiscard]] double select_quantile_inplace(std::span<double> samples,
                                             double q);

/// EmpiricalDistribution::quantile over a sample already sorted
/// ascending (non-empty), for callers that sort once and reuse it.
[[nodiscard]] double quantile_sorted(std::span<const double> sorted, double q);

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
