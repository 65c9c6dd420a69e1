// The mergeable-kernel contract behind fused single-pass analysis.
//
// Every statistic this repo computes over a trace is a fold that can
// (a) consume a decoded column batch densely, (b) merge with a partial
// fold of a disjoint stream segment, and (c) name the columns it
// reads. That triple is the Kernel concept; anything modeling it can
// ride ParallelTraceScanner's chunk map-reduce over any trace source
// (ParallelTraceScanner::scan_kernels, which analysis::run_kernels
// calls).
//
// KernelSet composes kernels so ONE decode of each chunk feeds all of
// them — the fused pass that collapses eiotrace's historical
// N-scans-per-bundle (and the histogram's extrema+fill double scan)
// into a single scan whose column mask is the union of its members'.
// Its members merge as independent lanes, so the scanner can run one
// member's merge chain beside another's.
#pragma once

#include <concepts>
#include <cstddef>
#include <tuple>
#include <utility>

#include "core/histogram.h"
#include "core/rate_series.h"
#include "core/samples.h"
#include "ipm/columns.h"

namespace eio::analysis {

/// A mergeable streaming statistic over trace events.
///
/// Semantics every model must honor:
///  * add_batch(b) folds the rows of b in index order, and the result
///    does not depend on where the stream was cut into batches (a
///    kernel that is also a live capture sink sees the Monitor's
///    batches instead of a file's chunks);
///  * merge(rhs) folds a partial computed over a LATER stream segment
///    into this one, and merging chunk partials in stream order equals
///    one serial pass (a reservoir's exact partials continue its one
///    sampling stream — see ReservoirSampler::merge; moments agree to
///    FP-merge rounding);
///  * required_columns() covers every column add_batch reads.
template <typename K>
concept Kernel = requires(K k, K rhs, const K ck, const ipm::ColumnBatch& b) {
  k.add_batch(b);
  k.merge(std::move(rhs));
  { ck.required_columns() } -> std::convertible_to<ipm::ColumnMask>;
};

/// A fixed tuple of kernels fed by one pass. KernelSet itself models
/// Kernel, so sets compose and ride the same scan driver.
template <Kernel... Ks>
class KernelSet {
 public:
  explicit KernelSet(Ks... kernels) : kernels_(std::move(kernels)...) {}

  void add_batch(const ipm::ColumnBatch& b) {
    std::apply([&](auto&... k) { (k.add_batch(b), ...); }, kernels_);
  }

  /// Each member is its own merge lane (ipm::MergeLanes): the chunk
  /// scanner merges lanes independently, each in chunk order.
  static constexpr std::size_t kLanes = sizeof...(Ks);

  /// Merge member `lane` of `other` — a later partial from the same
  /// factory, so the tuples pair up — into member `lane`, consuming
  /// only that member. Members share no state, so distinct lanes may
  /// merge concurrently.
  void merge_lane(std::size_t lane, KernelSet& other) {
    merge_lane_impl(lane, other, std::index_sequence_for<Ks...>{});
  }

  /// Member-wise merge: every lane, in member order.
  void merge(KernelSet&& other) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) merge_lane(lane, other);
  }

  /// Union of the members' masks — the single decode each chunk needs.
  [[nodiscard]] ipm::ColumnMask required_columns() const {
    return std::apply(
        [](const auto&... k) {
          return (ipm::ColumnMask{0} | ... | k.required_columns());
        },
        kernels_);
  }

  template <std::size_t I>
  [[nodiscard]] auto& get() {
    return std::get<I>(kernels_);
  }
  template <std::size_t I>
  [[nodiscard]] const auto& get() const {
    return std::get<I>(kernels_);
  }

 private:
  template <std::size_t... Is>
  void merge_lane_impl(std::size_t lane, KernelSet& other,
                       std::index_sequence<Is...>) {
    ((lane == Is
          ? (void)std::get<Is>(kernels_).merge(
                std::move(std::get<Is>(other.kernels_)))
          : void()),
     ...);
  }

  std::tuple<Ks...> kernels_;
};

/// Histogram of filter-matched event durations in ONE pass (the
/// two-scan padded-range + fill pipeline folded into a
/// StreamingHistogram; see its exactness notes).
class HistogramKernel {
 public:
  HistogramKernel(EventFilter filter,
                  const stats::StreamingHistogram::Options& options)
      : filter_(std::move(filter)), hist_(options) {}

  void add_batch(const ipm::ColumnBatch& batch) {
    scratch_.clear();
    scratch_.reserve(batch.size());
    filter_.for_each_match(
        batch, [&](std::size_t i) { scratch_.push_back(batch.duration[i]); });
    hist_.add_batch(scratch_);
  }

  void merge(HistogramKernel&& other) { hist_.merge(std::move(other.hist_)); }

  [[nodiscard]] ipm::ColumnMask required_columns() const noexcept {
    return filter_.required_columns() | ipm::kColDuration;
  }

  [[nodiscard]] const stats::StreamingHistogram& histogram() const noexcept {
    return hist_;
  }

 private:
  EventFilter filter_;
  stats::StreamingHistogram hist_;
  std::vector<double> scratch_;
};

/// Durations of filter-matched events, every one kept (the samples,
/// not the events): the exact input of a KS test or an exact median.
/// Partials concatenate in stream order.
class DurationSamplesKernel {
 public:
  explicit DurationSamplesKernel(EventFilter filter)
      : filter_(std::move(filter)) {}

  void add_batch(const ipm::ColumnBatch& batch) {
    filter_.for_each_match(
        batch, [&](std::size_t i) { samples_.push_back(batch.duration[i]); });
  }

  void merge(DurationSamplesKernel&& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
  }

  [[nodiscard]] ipm::ColumnMask required_columns() const noexcept {
    return filter_.required_columns() | ipm::kColDuration;
  }

  /// The samples, in stream order until the caller reorders them.
  [[nodiscard]] std::vector<double>& samples() noexcept { return samples_; }

 private:
  EventFilter filter_;
  std::vector<double> samples_;
};

/// Aggregate-rate time series of filter-matched transfers (the span
/// must be fixed up front — from the chunk index or a prior pass —
/// for partials to share binning and merge exactly).
class RateKernel {
 public:
  RateKernel(EventFilter filter, double span, std::size_t bins)
      : filter_(std::move(filter)), builder_(span, bins) {}

  void add_batch(const ipm::ColumnBatch& batch) {
    filter_.for_each_match(batch, [&](std::size_t i) {
      builder_.add(batch.start[i], batch.duration[i], batch.bytes[i]);
    });
  }

  void merge(RateKernel&& other) { builder_.merge(other.builder_); }

  [[nodiscard]] ipm::ColumnMask required_columns() const noexcept {
    return filter_.required_columns() | ipm::kColStart | ipm::kColDuration |
           ipm::kColBytes;
  }

  [[nodiscard]] const TimeSeries& series() const noexcept {
    return builder_.series();
  }

 private:
  EventFilter filter_;
  RateSeriesBuilder builder_;
};

static_assert(Kernel<SummarySink>);
static_assert(Kernel<PhaseSummarySink>);
static_assert(Kernel<HistogramKernel>);
static_assert(Kernel<RateKernel>);
static_assert(Kernel<DurationSamplesKernel>);
static_assert(Kernel<KernelSet<SummarySink, HistogramKernel, RateKernel>>);

}  // namespace eio::analysis
