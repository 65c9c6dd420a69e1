// Histograms over I/O event measurements.
//
// The paper's central artifact is the histogram of per-event I/O times
// (Figures 1c, 2, 4c/f, 5b, 6c/f/i/l), drawn with either linear bins
// (IOR) or log-spaced bins rendered log-log (MADbench, GCRM). Both
// binnings share this class.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/check.h"

namespace eio::stats {

/// Binning scheme.
enum class BinScale : std::uint8_t { kLinear, kLog10 };

/// A fixed-bin histogram of double-valued samples.
class Histogram {
 public:
  /// Construct with explicit range [lo, hi) and bin count. For
  /// kLog10, lo must be > 0.
  Histogram(BinScale scale, double lo, double hi, std::size_t bins);

  /// Convenience: build from samples with an automatic range (padded
  /// slightly so extrema fall inside).
  [[nodiscard]] static Histogram from_samples(std::span<const double> samples,
                                              BinScale scale, std::size_t bins);

  /// Build from pre-binned counts over [lo, hi) — the rendering path
  /// for accumulators that bin before the final range is known (see
  /// StreamingHistogram). The bin edges are exactly the uniform
  /// partition of [lo, hi) in transform space; under/overflow start at
  /// zero and total() is the sum of `counts`.
  [[nodiscard]] static Histogram from_counts(BinScale scale, double lo,
                                             double hi,
                                             std::vector<std::uint64_t> counts);

  /// An automatic [lo, hi) range for the given sample extrema, padded
  /// slightly so they fall inside. Factored out of from_samples so a
  /// streaming two-pass binning (extrema pass, then fill pass) builds
  /// bit-identical bins.
  struct Range {
    double lo = 0.0;
    double hi = 0.0;
  };
  [[nodiscard]] static Range padded_range(double sample_min, double sample_max,
                                          BinScale scale);

  /// Add one sample (out-of-range samples clamp to the edge bins and
  /// are counted in underflow()/overflow()). Inline: histogram fill is
  /// a per-event hot path in the scan kernels.
  void add(double value, std::uint64_t weight = 1) {
    if (value < lo_) {
      underflow_ += weight;
    } else if (value >= hi_) {
      overflow_ += weight;
    }
    counts_[bin_index(value)] += weight;
    total_ += weight;
  }

  /// Add many samples.
  void add_all(std::span<const double> samples);

  [[nodiscard]] std::size_t bin_count() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t count(std::size_t bin) const {
    EIO_CHECK(bin < counts_.size());
    return counts_[bin];
  }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t underflow() const noexcept { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
  [[nodiscard]] BinScale scale() const noexcept { return scale_; }
  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }

  /// Lower edge of a bin in sample units.
  [[nodiscard]] double bin_lower(std::size_t bin) const;
  /// Upper edge of a bin in sample units.
  [[nodiscard]] double bin_upper(std::size_t bin) const;
  /// Representative center (arithmetic for linear, geometric for log).
  [[nodiscard]] double bin_center(std::size_t bin) const;
  /// Width of a bin in sample units.
  [[nodiscard]] double bin_width(std::size_t bin) const;

  /// Bin index a value falls into (clamped to [0, bins-1]).
  [[nodiscard]] std::size_t bin_index(double value) const {
    double t = transform(value);
    double frac = (t - tlo_) / (thi_ - tlo_);
    auto bin =
        static_cast<std::ptrdiff_t>(frac * static_cast<double>(counts_.size()));
    bin = std::clamp<std::ptrdiff_t>(
        bin, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
    return static_cast<std::size_t>(bin);
  }

  /// Counts as a vector (for rendering/CSV).
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const noexcept {
    return counts_;
  }

  /// Merge a histogram with identical binning.
  void merge(const Histogram& other);

 private:
  /// Transform a value into bin coordinate space.
  [[nodiscard]] double transform(double v) const {
    return scale_ == BinScale::kLog10 ? std::log10(std::max(v, 1e-300)) : v;
  }

  BinScale scale_;
  double lo_, hi_;          // in sample units
  double tlo_, thi_;        // in transformed space
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
};

/// A single-pass, mergeable histogram accumulator.
///
/// Histogram needs its range before the first fill, which historically
/// forced a second trace scan (extrema pass, then fill pass). This
/// class removes that scan with a hybrid strategy:
///
///  - **Exact mode** (count <= exact_capacity): buffer the raw samples
///    and materialize via Histogram::from_samples — bit-identical to
///    the two-pass binning, including the padded range.
///  - **Lattice mode** (beyond exact_capacity): spill into a
///    power-of-two lattice in transform space (linear: t = x; log10:
///    t = log10(max(x, 1e-300))). Bins have width 2^k anchored at 0,
///    coarsened (k+1) whenever the occupied span would exceed
///    `bins`. Because the final k is a pure function of the global
///    value extent — max(representable exponent for the extent,
///    smallest k whose span fits `bins`) — any chunking or merge order
///    produces identical bins and counts.
///
/// merge() consumes the other accumulator; both sides must share
/// Options. Exact+exact merges concatenate raw samples (spilling only
/// if the union overflows), so chunked analysis of test-sized traces
/// stays bit-identical to the serial two-pass result.
class StreamingHistogram {
 public:
  struct Options {
    BinScale scale = BinScale::kLinear;
    std::size_t bins = 40;
    /// Raw samples buffered before spilling to the lattice. The
    /// default keeps eiotrace outputs bit-identical to the historical
    /// two-pass binning for traces up to 64Ki matching events.
    std::size_t exact_capacity = 65536;
  };

  StreamingHistogram() = default;
  explicit StreamingHistogram(const Options& options);

  /// Add one sample.
  void add(double x) {
    ++count_;
    if (!overflowed_) {
      raw_.push_back(x);
      if (raw_.size() > options_.exact_capacity) spill();
      return;
    }
    lattice_add(transform(x));
  }

  /// Add many samples.
  void add_batch(std::span<const double> xs);

  /// Fold another accumulator (same Options) into this one.
  void merge(StreamingHistogram&& other);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// True while raw samples are buffered (materialize() is then
  /// bit-identical to Histogram::from_samples over the same stream).
  [[nodiscard]] bool exact() const noexcept { return !overflowed_; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// Render to a fixed-bin Histogram; nullopt when no samples were
  /// added.
  [[nodiscard]] std::optional<Histogram> materialize() const;

 private:
  [[nodiscard]] double transform(double v) const {
    return options_.scale == BinScale::kLog10 ? std::log10(std::max(v, 1e-300))
                                              : v;
  }
  /// Smallest lattice exponent usable for |t|: keeps lattice indices
  /// below 2^39 so they fit int64 with headroom and adjacent bin-edge
  /// products i*2^k stay distinct doubles.
  [[nodiscard]] static int rep_exponent(double t);
  [[nodiscard]] std::int64_t lattice_index(double t) const;
  /// Count one transformed value. In-window fast path: when t lies
  /// inside the occupied lattice span, the insert is exactly
  /// "increment the cell floor(t / 2^k) falls in" — no
  /// representability check, no coarsening, no window growth. The
  /// cached bounds guarantee the index fits the current window (floor
  /// is monotone and the edge products are exact doubles), so this is
  /// the same cell lattice_insert would pick.
  void lattice_add(double t) {
    if (t >= win_lo_ && t < win_hi_) {
      // t * 2^-k is the identical double to ldexp(t, -k) (both
      // correctly round the same exact product; the scale is an exact
      // power of two), and the truncate-and-adjust below is integer
      // floor — so this cell index matches lattice_index(t) bit for
      // bit without the two libm calls.
      double y = t * win_scale_;
      auto i = static_cast<std::int64_t>(y);
      i -= static_cast<std::int64_t>(static_cast<double>(i) > y);
      ++counts_[static_cast<std::size_t>(i - base_)];
      return;
    }
    lattice_insert(t, 1);
  }
  void lattice_insert(double t, std::uint64_t weight);
  void coarsen();
  void spill();
  /// Refresh the cached transform-space extent of the occupied window
  /// (the add() fast-path guard). Must run after any mutation of
  /// k_/base_/counts_.
  void update_window();

  Options options_;
  std::vector<double> raw_;
  bool overflowed_ = false;
  std::uint64_t count_ = 0;
  // Lattice state (valid once overflowed_): counts_[j] covers
  // transformed values in [(base_+j)*2^k_, (base_+j+1)*2^k_).
  int k_ = 0;
  std::int64_t base_ = 0;
  std::vector<std::uint64_t> counts_;
  // Cached window edges [base_*2^k_, (base_+size)*2^k_) in transform
  // space; empty (0, 0) while counts_ is empty so every add takes the
  // slow path. win_scale_ caches 2^-k_ for the fast-path cell index.
  double win_lo_ = 0.0;
  double win_hi_ = 0.0;
  double win_scale_ = 1.0;
};

}  // namespace eio::stats
