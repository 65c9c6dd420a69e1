// The in-memory trace: a job's collected events.
//
// A Trace is the per-job collection (the paper's full-trace capture
// mode), with text and v3 serializations for offline analysis. It is a
// TraceSource like a trace file, so every analysis reads it through
// the same chunked pass.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ipm/trace_event.h"
#include "ipm/trace_source.h"

namespace eio::ipm {

/// A job's collected events plus job-level metadata.
class Trace final : public TraceSource {
 public:
  Trace() = default;
  Trace(std::string experiment, std::uint32_t ranks) {
    index_.meta.experiment = std::move(experiment);
    index_.meta.ranks = ranks;
  }

  void add(const TraceEvent& event);

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] const std::string& experiment() const noexcept {
    return index_.meta.experiment;
  }
  [[nodiscard]] std::uint32_t ranks() const noexcept { return meta().ranks; }
  void set_ranks(std::uint32_t ranks) { index_.meta.ranks = ranks; }
  void set_experiment(std::string name) {
    index_.meta.experiment = std::move(name);
  }

  /// Wall-clock span covered by the trace (latest end time).
  [[nodiscard]] Seconds span() const { return time_span(); }

  // The TraceSource view: chunk c shreds rows [c, c + 1) x
  // kDefaultBatchEvents into the cursor's scratch.
  [[nodiscard]] const TraceIndex& index() const override { return index_; }
  [[nodiscard]] ColumnBatch decode_chunk(std::size_t chunk, ColumnMask mask,
                                         ChunkCursor& cursor) const override;

  /// Serialize as a TSV stream (header line + one event per line).
  void write(std::ostream& out) const;
  /// Parse a stream produced by write(). Throws std::runtime_error on
  /// malformed input.
  [[nodiscard]] static Trace read(std::istream& in);

  /// Serialize as the columnar binary v3 format (see trace_v3.h) —
  /// chunked per-column delta/varint streams with optional RLE
  /// compression behind a footer index.
  void write_binary_v3(std::ostream& out) const;
  /// Parse a seekable stream produced by write_binary_v3(): its footer
  /// index, then every chunk through the one v3 chunk decoder. Throws
  /// std::runtime_error on truncated or corrupt input.
  [[nodiscard]] static Trace read_binary(std::istream& in);

  /// Convenience file-path wrappers. save() writes TSV,
  /// save_binary_v3() the v3 form; load() auto-detects TSV or v3 from
  /// the magic bytes and throws std::runtime_error when the file cannot
  /// be opened.
  void save(const std::string& path) const;
  void save_binary_v3(const std::string& path) const;
  [[nodiscard]] static Trace load(const std::string& path);

 private:
  /// Fold row `row` into the index (a chunk per kDefaultBatchEvents).
  void index_row(std::size_t row);

  /// Experiment and ranks (no declared event count) plus the chunks.
  TraceIndex index_;
  std::vector<TraceEvent> events_;
};

}  // namespace eio::ipm
