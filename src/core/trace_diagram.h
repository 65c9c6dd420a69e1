// Trace diagrams (Figures 1a, 4a/d, 5c, 6a/d/g/j).
//
// The classic IPM-I/O picture: one horizontal line per task (task 0 on
// top), wall-clock time on the x axis, colored bars while the task is
// inside an I/O call. Rendered here as a downsampled character raster:
// '#' write, 'o' read, '+' both, '.' metadata-only, ' ' idle/barrier.
// The paper itself notes the diagram's limited value at 10,240 tasks —
// which the downsampling makes visible in exactly the same way.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ipm/trace.h"
#include "ipm/trace_source.h"

namespace eio::analysis {

/// A rasterized trace diagram.
class TraceDiagram {
 public:
  struct Options {
    std::size_t max_rows = 32;   ///< rank rows after downsampling
    std::size_t columns = 100;   ///< time bins
  };

  /// Streaming form: fix the geometry (rank mapping and time axis) up
  /// front, then fold batches with add_batch() in any order. Memory is
  /// O(rows * columns), independent of the event count.
  TraceDiagram(std::uint32_t ranks, double span, Options options);

  /// Build from a trace: rows from its rank count, the span from its
  /// chunk index (source.time_span()), then one pass to rasterize.
  TraceDiagram(const ipm::TraceSource& source, Options options);

  /// Fold a batch into the raster (reads start, duration, op, rank).
  void add_batch(const ipm::ColumnBatch& batch);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t columns() const noexcept { return cols_; }
  [[nodiscard]] double seconds_per_column() const noexcept { return dt_; }

  /// Busy-time fraction of a cell attributable to writes / reads.
  [[nodiscard]] double write_fraction(std::size_t row, std::size_t col) const;
  [[nodiscard]] double read_fraction(std::size_t row, std::size_t col) const;

  /// Fraction of all cells that are idle (the "mostly white space"
  /// observation of Figure 6a).
  [[nodiscard]] double idle_fraction() const;

  /// Character raster, one string per row.
  [[nodiscard]] std::vector<std::string> render() const;

  /// render() joined with newlines plus an x-axis ruler.
  [[nodiscard]] std::string render_text() const;

 private:
  [[nodiscard]] double& cell(std::vector<double>& plane, std::size_t row,
                             std::size_t col) {
    return plane[row * cols_ + col];
  }
  [[nodiscard]] double plane_at(const std::vector<double>& plane, std::size_t row,
                                std::size_t col) const {
    return plane[row * cols_ + col];
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  double dt_ = 0.0;
  double span_ = 0.0;
  double ranks_per_row_ = 1.0;
  std::vector<double> write_;  ///< busy fraction per cell
  std::vector<double> read_;
  std::vector<double> meta_;
};

}  // namespace eio::analysis
