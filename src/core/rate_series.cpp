#include "core/rate_series.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace eio::analysis {

double TimeSeries::max_value() const {
  double m = 0.0;
  for (double v : values) m = std::max(m, v);
  return m;
}

double TimeSeries::integral() const {
  double acc = 0.0;
  for (double v : values) acc += v;
  return acc * dt;
}

RateSeriesBuilder::RateSeriesBuilder(double span, std::size_t bins) {
  EIO_CHECK(bins >= 1);
  if (span <= 0.0) span = 1.0;
  series_.t0 = 0.0;
  series_.dt = span / static_cast<double>(bins);
  series_.values.assign(bins, 0.0);
}

void RateSeriesBuilder::merge(const RateSeriesBuilder& other) {
  EIO_CHECK_MSG(other.series_.t0 == series_.t0 &&
                    other.series_.dt == series_.dt &&
                    other.series_.values.size() == series_.values.size(),
                "rate-series binning mismatch in merge");
  for (std::size_t i = 0; i < series_.values.size(); ++i) {
    series_.values[i] += other.series_.values[i];
  }
}

TimeSeries aggregate_rate(const ipm::TraceSource& source,
                          const EventFilter& filter, std::size_t bins) {
  // Span comes from *all* events, read from the chunk index, so only
  // the folding pass below touches events.
  RateSeriesBuilder builder(source.time_span(), bins);
  filter.for_each_match(
      source, ipm::kColStart | ipm::kColDuration | ipm::kColBytes,
      [&](const ipm::ColumnBatch& b, std::size_t i) {
        builder.add(b.start[i], b.duration[i], b.bytes[i]);
      });
  return builder.series();
}

ProgressCurve completion_curve(const ipm::TraceSource& source,
                               const EventFilter& filter) {
  std::vector<double> starts, ends;
  filter.for_each_match(source, ipm::kColStart | ipm::kColDuration,
                        [&](const ipm::ColumnBatch& b, std::size_t i) {
                          starts.push_back(b.start[i]);
                          ends.push_back(b.start[i] + b.duration[i]);
                        });
  ProgressCurve curve;
  if (ends.empty()) return curve;
  double origin = *std::min_element(starts.begin(), starts.end());
  std::sort(ends.begin(), ends.end());
  auto n = static_cast<double>(ends.size());
  curve.t.reserve(ends.size() + 1);
  curve.fraction.reserve(ends.size() + 1);
  curve.t.push_back(0.0);
  curve.fraction.push_back(0.0);
  for (std::size_t i = 0; i < ends.size(); ++i) {
    curve.t.push_back(ends[i] - origin);
    curve.fraction.push_back(static_cast<double>(i + 1) / n);
  }
  return curve;
}

}  // namespace eio::analysis
