// One-pass statistical accumulators.
//
// The paper's §VI direction — "from an I/O tracing paradigm to an I/O
// profiling paradigm" — requires every distribution-level statistic to
// be computable without holding the events. These kernels maintain
// bounded state per sample stream:
//
//  * StreamingMoments: mean/variance/skewness/kurtosis via the
//    Welford/Pébay incremental central-moment updates;
//  * ReservoirSampler: Vitter's Algorithm X — a uniform sample of
//    bounded size, *exact* (every value retained) until the capacity
//    is exceeded, so quantiles/CDFs/KS inputs computed from it are
//    identical to the materialized answer on bounded traces while
//    degrading gracefully at scale. Past capacity it draws skip *gaps*
//    instead of one variate per element, amortizing the RNG cost to
//    O(capacity * log(n / capacity)) draws total;
//  * StreamingSummary: the bundle (count/min/max + moments +
//    reservoir) every analysis sink composes.
//
// The batch entry points in distribution.h/histogram.h are thin
// wrappers over these kernels, so streaming and materialized paths
// agree by construction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/distribution.h"

namespace eio::stats {

/// Incremental central moments M1..M4 (Welford's algorithm extended to
/// higher orders by Pébay's single-pass update formulas).
class StreamingMoments {
 public:
  /// Defined inline: this is the innermost call of every columnar and
  /// per-event fold, and keeping it visible to callers lets the whole
  /// add chain flatten into the scan loops.
  void add(double x) {
    // Pébay's one-pass updates for central moments through order four.
    double n1 = static_cast<double>(n_);
    ++n_;
    double n = static_cast<double>(n_);
    double delta = x - mean_;
    double delta_n = delta / n;
    double delta_n2 = delta_n * delta_n;
    double term1 = delta * delta_n * n1;
    mean_ += delta_n;
    m4_ += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * m2_ -
           4.0 * delta_n * m3_;
    m3_ += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * m2_;
    m2_ += term1;
  }

  /// Fold a dense sample span (a decoded column) in index order — the
  /// identical update sequence as calling add() per element, so batch
  /// and per-event feeds agree bit for bit.
  void add_batch(std::span<const double> xs) {
    for (double x : xs) add(x);
  }

  /// Combine with another accumulator (Pébay's pairwise update) —
  /// what per-rank or per-run partial moments use to fold together.
  void merge(const StreamingMoments& other);

  [[nodiscard]] std::size_t count() const noexcept { return n_; }

  /// Finalized moments, with the same small-count and zero-variance
  /// conventions as compute_moments().
  [[nodiscard]] Moments moments() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double m3_ = 0.0;
  double m4_ = 0.0;
};

/// Uniform bounded-size sample of a stream (Vitter's Algorithm X with
/// a deterministic substream). While seen() <= capacity the reservoir
/// holds *every* value, so downstream order statistics are exact.
///
/// Past capacity the sampler draws a skip *gap* — the number of
/// upcoming records to discard before the next acceptance — instead of
/// one variate per record (Vitter 1985, Algorithm X): one uniform V in
/// (0, 1] selects the smallest gap s with
///   prod_{i=1..s+1} (t + i - capacity) / (t + i) <= V
/// after t records, reproducing Algorithm R's marginal acceptance
/// probability capacity/(t+1) while consuming zero randomness for the
/// skipped records. The pending gap is carried in skip_, so add() and
/// add_batch() share one draw sequence: feeding the same stream in any
/// chunking yields bit-identical samples. Which sample a given version
/// draws past capacity is a versioned contract (DESIGN.md §5l); the
/// exact regime never moves.
class ReservoirSampler {
 public:
  explicit ReservoirSampler(std::size_t capacity = kDefaultCapacity,
                            std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr std::size_t kDefaultCapacity = 65536;

  /// Inline for the same reason as StreamingMoments::add — the scan
  /// hot path. Amortized cost past capacity: a decrement (records
  /// inside a gap consume no randomness at all).
  void add(double x) {
    if (skip_ > 0) {
      --skip_;
      ++seen_;
      return;
    }
    if (samples_.size() < capacity_) {
      ++seen_;
      samples_.push_back(x);
      // Draw the first gap the moment the exact regime ends, so the
      // serial and batched paths leave the boundary with the same
      // pending state.
      if (samples_.size() == capacity_) next_gap();
      return;
    }
    ++seen_;
    samples_[static_cast<std::size_t>(rng_.index(capacity_))] = x;
    next_gap();
  }

  /// Fold a dense span. Identical draw sequence to add() per element;
  /// the exact-fill prefix is one bulk copy (no pending gap can exist
  /// below capacity) and whole gaps inside the span are skipped with
  /// pointer arithmetic.
  void add_batch(std::span<const double> xs) {
    std::size_t i = 0;
    if (samples_.size() < capacity_ && skip_ == 0) {
      std::size_t take = std::min(xs.size(), capacity_ - samples_.size());
      samples_.insert(samples_.end(), xs.begin(), xs.begin() + take);
      seen_ += take;
      i = take;
      if (samples_.size() == capacity_) next_gap();
    }
    while (i < xs.size() && samples_.size() < capacity_) add(xs[i++]);
    while (i < xs.size()) {
      std::uint64_t left = xs.size() - i;
      if (skip_ >= left) {
        skip_ -= left;
        seen_ += left;
        return;
      }
      i += static_cast<std::size_t>(skip_);
      seen_ += skip_;
      skip_ = 0;
      ++seen_;
      samples_[static_cast<std::size_t>(rng_.index(capacity_))] = xs[i++];
      next_gap();
    }
  }

  /// Fold another reservoir (same capacity) holding a LATER segment of
  /// the stream into this one. When the other side is exact its sample
  /// IS its segment, in stream order, so this sampler continues over it
  /// with add_batch() — also when this side is empty. Merging exact
  /// partials in stream order therefore draws exactly the sample of one
  /// serial pass with this sampler's seed, however the stream was cut.
  /// An overflowed other side is adopted wholesale by an empty sampler;
  /// otherwise each output slot draws from one side with probability
  /// proportional to that side's remaining stream weight (the weighted
  /// Algorithm-R merge), so every stream element keeps an equal chance
  /// of surviving, and the pending gap is re-drawn for the combined
  /// count. That weighted path is deterministic in (seeds, merge order).
  void merge(const ReservoirSampler& other);

  [[nodiscard]] std::uint64_t seen() const noexcept { return seen_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// True while no value has been discarded (the sample is the stream).
  [[nodiscard]] bool exact() const noexcept { return seen_ <= capacity_; }
  [[nodiscard]] const std::vector<double>& samples() const noexcept {
    return samples_;
  }

 private:
  /// Draw the next skip gap (Vitter's Algorithm X search): one uniform
  /// V in (0, 1], then the smallest s whose cumulative skip
  /// probability falls below it. The search is O(s) with s ~
  /// seen/capacity in expectation; kMaxSkip caps a pathological
  /// tiny-V draw deterministically (the truncation shortens one gap
  /// out of ~2^30 — no measurable bias, and identical on every
  /// replay).
  void next_gap() {
    double v = 1.0 - rng_.uniform();  // (0, 1]: the search must terminate
    double t = static_cast<double>(seen_);
    double cap = static_cast<double>(capacity_);
    std::uint64_t s = 0;
    double quot = (t + 1.0 - cap) / (t + 1.0);
    while (quot > v && s < kMaxSkip) {
      ++s;
      quot *= (t + 1.0 + static_cast<double>(s) - cap) /
              (t + 1.0 + static_cast<double>(s));
    }
    skip_ = s;
  }

  static constexpr std::uint64_t kMaxSkip = std::uint64_t{1} << 30;

  std::size_t capacity_;
  rng::Stream rng_;
  std::vector<double> samples_;
  std::uint64_t seen_ = 0;
  std::uint64_t skip_ = 0;  ///< records left in the pending gap
};

/// Knobs for StreamingSummary (at namespace scope so it can be a
/// defaulted constructor argument). Every summary samples with the
/// ReservoirSampler default seed, so the partials of one scan continue
/// one stream.
struct SummaryOptions {
  std::size_t reservoir_capacity = ReservoirSampler::kDefaultCapacity;
};

/// The standard per-stream bundle: count, extrema, incremental
/// moments, and a reservoir for order statistics. Memory is
/// O(reservoir capacity), independent of the stream length.
class StreamingSummary {
 public:
  StreamingSummary() : StreamingSummary(SummaryOptions{}) {}
  explicit StreamingSummary(const SummaryOptions& options)
      : reservoir_(options.reservoir_capacity) {}

  void add(double x) {
    if (moments_.count() == 0) {
      min_ = x;
      max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    moments_.add(x);
    reservoir_.add(x);
  }

  /// Fold a dense sample span (a decoded column) in index order —
  /// value-identical to add() per element: each sub-kernel folds the
  /// same sequence, just as one dense pass per kernel instead of one
  /// interleaved pass per element, which keeps each kernel's state in
  /// registers across the span.
  void add_batch(std::span<const double> xs) {
    if (xs.empty()) return;
    double lo = xs[0], hi = xs[0];
    for (double x : xs) {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
    if (moments_.count() == 0) {
      min_ = lo;
      max_ = hi;
    } else {
      min_ = std::min(min_, lo);
      max_ = std::max(max_, hi);
    }
    moments_.add_batch(xs);
    reservoir_.add_batch(xs);
  }

  /// Fold another summary into this one: counts and extrema merge
  /// exactly, moments to FP-merge rounding; the reservoir merges per
  /// ReservoirSampler::merge. Partials must be merged in stream order
  /// for the merged sample to equal the serial one.
  void merge(const StreamingSummary& other);

  [[nodiscard]] std::size_t count() const noexcept { return moments_.count(); }
  [[nodiscard]] bool empty() const noexcept { return count() == 0; }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] Moments moments() const { return moments_.moments(); }
  [[nodiscard]] const ReservoirSampler& reservoir() const noexcept {
    return reservoir_;
  }
  /// Quantile from the reservoir (exact while the reservoir is exact).
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

 private:
  StreamingMoments moments_;
  ReservoirSampler reservoir_;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace eio::stats
