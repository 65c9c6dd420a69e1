// Running analysis kernels over a trace in one pass: chunk-parallel
// over an indexed (v3) file, serial over anything else.
//
// run_kernels is the one place that chooses. Handed an indexed
// FileTraceSource, it builds a ParallelTraceScanner over the source
// (borrowing its index and path) and hands it the kernel factory (a
// summary sink, streaming histogram, rate builder — or a KernelSet
// fusing several): one kernel per chunk, folded by worker threads and
// merged in chunk order. A TSV file or an in-memory Trace gets one
// serial columnar pass into the factory's chunk-0 kernel. Results are
// deterministic in the scanner contract's sense — identical for every
// jobs value — and match the serial streaming path exactly wherever
// the underlying kernel merges exactly: counts, extrema, histogram
// bins, rate bins and reservoirs. A reservoir's chunk partials are
// exact (a chunk matches at most chunk_events rows, far below the
// capacity), so merging them in chunk order continues one sampling
// stream in row order (see ReservoirSampler::merge): a sample past
// capacity does not depend on chunking, jobs or format. Moments match
// to FP-merge rounding.
#pragma once

#include <cstddef>

#include "core/kernel.h"
#include "ipm/parallel_scan.h"

namespace eio::analysis {

// A KernelSet must keep exposing its members as merge lanes, or the
// scanner would silently merge the whole set as one lane.
static_assert(ipm::MergeLanes<KernelSet<SummarySink, HistogramKernel>>);

/// Run a kernel factory over a trace in ONE pass: chunk-parallel on
/// `jobs` workers (0 = EIO_JOBS env, else hardware concurrency) when
/// the source is an indexed file, a single serial columnar pass (as the
/// factory's chunk-0 kernel) otherwise. Either way every kernel of the
/// set sees the decode exactly once.
template <typename MakeKernel>
[[nodiscard]] auto run_kernels(const ipm::TraceSource& source,
                               std::size_t jobs, const ipm::ChunkHint& hint,
                               const MakeKernel& make) {
  const auto* file = dynamic_cast<const ipm::FileTraceSource*>(&source);
  if (file != nullptr && file->index()) {
    return ipm::ParallelTraceScanner(*file, {.jobs = jobs})
        .scan_kernels(make, &hint);
  }
  auto kernel = make(std::size_t{0});
  source.for_each_columns_hinted(
      hint, kernel.required_columns(),
      [&kernel](const ipm::ColumnBatch& batch) { kernel.add_batch(batch); });
  return kernel;
}

}  // namespace eio::analysis
