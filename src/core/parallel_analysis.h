// Chunk-parallel analysis kernels over indexed (v2/v3) traces.
//
// Each helper runs one ParallelTraceScanner kernel-set map-reduce: a
// bounded kernel (summary sink, streaming histogram, rate builder — or
// a KernelSet fusing several) per chunk, folded by worker threads and
// merged in chunk order. Results are deterministic in the scanner
// contract's sense — identical for every --jobs value — and match the
// serial streaming path exactly wherever the underlying kernel merges
// exactly (counts, extrema, histogram bins, rate bins, reservoirs
// below capacity). Moments match to FP-merge rounding; quantiles past
// reservoir capacity are served by the merged-exact histogram mode
// (see StreamingSummary::histogram_quantile).
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "common/rng.h"
#include "core/kernel.h"
#include "core/rate_series.h"
#include "core/samples.h"
#include "core/streaming.h"
#include "ipm/parallel_scan.h"

namespace eio::analysis {

/// Summary options for one chunk of a parallel scan: chunk c's
/// reservoir draws from substream_seed(base seed, c), so the sample is
/// a function of the trace and options alone — never of worker
/// scheduling. Serial (non-indexed) passes use chunk 0.
[[nodiscard]] inline stats::SummaryOptions chunk_summary_options(
    const stats::SummaryOptions& base, std::size_t chunk) {
  stats::SummaryOptions per_chunk = base;
  per_chunk.reservoir_seed = rng::substream_seed(base.reservoir_seed, chunk);
  return per_chunk;
}

// A KernelSet must keep exposing its members as merge lanes, or the
// scanner would silently merge the whole set as one lane.
static_assert(ipm::MergeLanes<KernelSet<SummarySink, HistogramKernel>>);

/// Run a kernel factory over a trace in ONE pass: chunk-parallel via
/// the scanner when the trace is indexed, a single serial columnar
/// pass (as the factory's chunk-0 kernel) otherwise. Either way every
/// kernel of the set sees the decode exactly once.
template <typename MakeKernel>
[[nodiscard]] auto run_kernels(
    const ipm::TraceSource& source,
    const std::optional<ipm::ParallelTraceScanner>& scanner,
    const ipm::ChunkHint& hint, const MakeKernel& make) {
  if (scanner) return scanner->scan_kernels(make, &hint);
  auto kernel = make(std::size_t{0});
  source.for_each_columns_hinted(
      hint, kernel.required_columns(),
      [&kernel](const ipm::ColumnBatch& batch) { kernel.add_batch(batch); });
  return kernel;
}

/// Filter-matched duration summary (count/extrema/moments/reservoir)
/// across all admitted chunks.
[[nodiscard]] stats::StreamingSummary scan_summary(
    const ipm::ParallelTraceScanner& scanner, const EventFilter& filter,
    const stats::SummaryOptions& options = {});

/// Per-phase duration summaries (the streaming durations_by_phase).
[[nodiscard]] std::map<std::int32_t, stats::StreamingSummary>
scan_phase_summaries(const ipm::ParallelTraceScanner& scanner,
                     const EventFilter& filter,
                     const stats::SummaryOptions& options = {});

/// Histogram of matched durations in ONE scan (StreamingHistogram:
/// identical to the historical two-pass padded-range + fill binning
/// while the matched count fits the exact buffer, a deterministic
/// power-of-two lattice beyond it). nullopt when nothing matches.
[[nodiscard]] std::optional<stats::Histogram> scan_histogram(
    const ipm::ParallelTraceScanner& scanner, const EventFilter& filter,
    stats::BinScale scale, std::size_t bins);

/// Aggregate data rate of matched events; the span comes from the
/// chunk index (no extra event pass), matching aggregate_rate's batch
/// semantics.
[[nodiscard]] TimeSeries scan_rate(const ipm::ParallelTraceScanner& scanner,
                                   const EventFilter& filter,
                                   std::size_t bins);

}  // namespace eio::analysis
