// Running analysis kernels over a trace in one pass, chunk-parallel.
//
// run_kernels hands a kernel factory (a summary sink, streaming
// histogram, rate builder — or a KernelSet fusing several) to a
// ParallelTraceScanner over any source — v3, TSV or an in-memory
// Trace: one kernel per chunk, folded by worker threads and merged in
// chunk order. Results are identical for every jobs value, and across
// formats at the default 4,096-row chunk. Counts, extrema, bins and
// reservoirs merge exactly (exact chunk partials continue one sampling
// stream, see ReservoirSampler::merge); moments match one serial fold
// to FP-merge rounding.
#pragma once

#include <cstddef>

#include "core/kernel.h"
#include "ipm/parallel_scan.h"

namespace eio::analysis {

// A KernelSet must keep exposing its members as merge lanes, or the
// scanner would silently merge the whole set as one lane.
static_assert(ipm::MergeLanes<KernelSet<SummarySink, HistogramKernel>>);

/// Run a kernel factory over a trace in ONE chunk-parallel pass on
/// `jobs` workers (0 = EIO_JOBS env, else hardware concurrency): every
/// kernel of the set sees each admitted chunk's decode exactly once.
template <typename MakeKernel>
[[nodiscard]] auto run_kernels(const ipm::TraceSource& source,
                               std::size_t jobs, const ipm::ChunkHint& hint,
                               const MakeKernel& make) {
  return ipm::ParallelTraceScanner(source, {.jobs = jobs})
      .scan_kernels(make, &hint);
}

}  // namespace eio::analysis
