// Aggregate instantaneous data-rate time series.
//
// Figures 1(b), 4(b/e) and 6(b/e/h/k) plot the job-wide data rate over
// wall-clock time. Each traced transfer is assumed to move bytes at a
// uniform rate across its [start, end) interval; binning those
// contributions gives the aggregate series. The same machinery yields
// the per-phase completion-fraction curves of Figure 5(a).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/samples.h"
#include "ipm/trace.h"

namespace eio::analysis {

/// A uniformly-binned time series.
struct TimeSeries {
  double t0 = 0.0;
  double dt = 1.0;
  std::vector<double> values;

  [[nodiscard]] double time_at(std::size_t i) const noexcept {
    return t0 + dt * (static_cast<double>(i) + 0.5);
  }
  [[nodiscard]] double max_value() const;
  /// Sum of values * dt (for rates: total bytes).
  [[nodiscard]] double integral() const;
};

/// One-pass rate-series accumulator: fix the span up front, then fold
/// events in any order. Each transfer contributes its uniform rate to
/// every bin its [start, end) interval overlaps. Memory is O(bins).
/// aggregate_rate and the analysis RateKernel wrap this kernel.
class RateSeriesBuilder {
 public:
  /// `span` is the wall-clock extent binned into [0, span); non-
  /// positive spans clamp to 1 (an empty trace's 1-second axis).
  RateSeriesBuilder(double span, std::size_t bins);

  /// Fold one transfer from its decoded column values. Ignores
  /// zero-byte transfers; zero/negative durations clamp to 1 ns.
  /// Inline: one call per matching event in the rate scans.
  void add(double start, double duration, Bytes bytes) {
    if (bytes == 0) return;
    std::size_t bins = series_.values.size();
    double end = start + duration;
    if (end <= start) end = start + 1e-9;
    double rate = static_cast<double>(bytes) / (end - start);
    auto first = static_cast<std::size_t>(
        std::clamp(start / series_.dt, 0.0, static_cast<double>(bins - 1)));
    auto last = static_cast<std::size_t>(
        std::clamp(end / series_.dt, 0.0, static_cast<double>(bins - 1)));
    for (std::size_t b = first; b <= last; ++b) {
      double bin_lo = series_.dt * static_cast<double>(b);
      double bin_hi = bin_lo + series_.dt;
      double overlap = std::min(end, bin_hi) - std::max(start, bin_lo);
      if (overlap > 0.0) series_.values[b] += rate * overlap / series_.dt;
    }
  }

  /// Fold another builder over the same span/binning (elementwise add
  /// — rates are linear, so partials merge exactly up to FP rounding).
  void merge(const RateSeriesBuilder& other);

  [[nodiscard]] const TimeSeries& series() const noexcept { return series_; }

 private:
  TimeSeries series_;
};

/// Aggregate data rate (bytes/s) of matching events over the job.
/// `bins` partitions [0, source.time_span()] — the span of all events,
/// matched or not, free from the chunk index; one pass folds the
/// matching events. O(bins) memory.
[[nodiscard]] TimeSeries aggregate_rate(const ipm::TraceSource& source,
                                        const EventFilter& filter,
                                        std::size_t bins);

/// Fraction of matching I/O operations complete versus time, measured
/// from the first matching event's start (the Figure 5a curves; one
/// call per phase via filter.phase).
struct ProgressCurve {
  std::vector<double> t;         ///< seconds since phase start
  std::vector<double> fraction;  ///< ops complete by then (0..1)
};
[[nodiscard]] ProgressCurve completion_curve(const ipm::TraceSource& source,
                                             const EventFilter& filter);

}  // namespace eio::analysis
