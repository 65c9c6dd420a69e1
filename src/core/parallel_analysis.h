// Running analysis kernels over a trace in one pass: chunk-parallel
// over an indexed (v3) trace, serial over anything else.
//
// run_kernels hands a kernel factory (a summary sink, streaming
// histogram, rate builder — or a KernelSet fusing several) to the
// ParallelTraceScanner: one kernel per chunk, folded by worker threads
// and merged in chunk order. Results are deterministic in the scanner
// contract's sense — identical for every --jobs value — and match the
// serial streaming path exactly wherever the underlying kernel merges
// exactly (counts, extrema, histogram bins, rate bins, reservoirs
// below capacity). Moments match to FP-merge rounding; quantiles past
// reservoir capacity are served by the merged-exact histogram mode
// (see StreamingSummary::histogram_quantile).
#pragma once

#include <cstddef>
#include <optional>

#include "common/rng.h"
#include "core/kernel.h"
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

}  // namespace eio::analysis
