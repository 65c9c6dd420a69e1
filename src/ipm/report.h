// IPM-style job summary report.
//
// Real IPM prints a job banner at MPI_Finalize: wall time, per-call
// counts/bytes/time, and the load-imbalance min/mean/max across ranks.
// This module renders the same summary from a Trace (or incrementally
// from per-rank statistics), giving the "profiling" counterpart of the
// event-level trace.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "ipm/sink.h"
#include "ipm/trace.h"
#include "ipm/trace_source.h"

namespace eio::ipm {

/// Aggregate statistics for one call type.
struct CallStats {
  std::uint64_t count = 0;
  Bytes bytes = 0;
  Seconds total_time = 0.0;
  Seconds max_time = 0.0;

  [[nodiscard]] Seconds avg_time() const noexcept {
    return count > 0 ? total_time / static_cast<double>(count) : 0.0;
  }
  /// Achieved bandwidth over time spent inside the call.
  [[nodiscard]] Rate bandwidth() const noexcept {
    return total_time > 0.0 ? static_cast<double>(bytes) / total_time : 0.0;
  }
};

/// Min/mean/max of a per-rank quantity (IPM's imbalance triple).
struct Imbalance {
  double min = 0.0;
  double mean = 0.0;
  double max = 0.0;
  /// max/mean — 1.0 means perfectly balanced.
  [[nodiscard]] double factor() const noexcept {
    return mean > 0.0 ? max / mean : 0.0;
  }
};

/// The computed job summary.
struct JobReport {
  std::string experiment;
  std::uint32_t ranks = 0;
  Seconds wall_time = 0.0;           ///< span of the trace
  Seconds total_io_time = 0.0;       ///< summed across ranks
  std::map<posix::OpType, CallStats> by_op;
  Imbalance io_time_per_rank;        ///< total I/O seconds per rank
  Imbalance bytes_per_rank;          ///< data bytes per rank
  RankId busiest_rank = 0;           ///< rank with the most I/O time

  /// Fraction of rank-seconds spent inside I/O calls.
  [[nodiscard]] double io_fraction() const noexcept {
    double denom = wall_time * static_cast<double>(ranks);
    return denom > 0.0 ? total_io_time / denom : 0.0;
  }
};

/// One-pass report builder: an EventSink folding each event into the
/// per-op and per-rank aggregates. Memory is O(ranks + op types),
/// independent of the event count — this is the kernel both summarize
/// overloads wrap, so streaming and materialized reports are
/// identical by construction.
class JobReportAccumulator final : public EventSink {
 public:
  JobReportAccumulator(std::string experiment, std::uint32_t ranks);

  void add_batch(const ColumnBatch& batch) override;

  /// The summary of everything seen so far.
  [[nodiscard]] JobReport report() const;

 private:
  JobReport report_;
  std::vector<double> time_per_rank_;
  std::vector<double> bytes_per_rank_;
};

/// Compute the summary in one streaming pass (O(ranks) memory).
[[nodiscard]] JobReport summarize(const TraceSource& source);

/// Render the classic banner.
void print_report(std::ostream& out, const JobReport& report);

/// Convenience: summarize + render to a string.
[[nodiscard]] std::string report_text(const TraceSource& source);

}  // namespace eio::ipm
