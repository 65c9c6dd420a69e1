// The in-memory trace: a job's collected events.
//
// A Trace is the per-job collection (the paper's full-trace capture
// mode), with text and v3 serializations for offline analysis and a
// merge operation for combining per-rank or per-run traces. It is a
// TraceSource like a trace file, so every analysis reads it through
// the same columnar pass.
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
    meta_.experiment = std::move(experiment);
    meta_.ranks = ranks;
  }

  void add(const TraceEvent& event) { events_.push_back(event); }

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] const std::string& experiment() const noexcept {
    return meta_.experiment;
  }
  [[nodiscard]] std::uint32_t ranks() const noexcept { return meta_.ranks; }
  void set_ranks(std::uint32_t ranks) { meta_.ranks = ranks; }
  void set_experiment(std::string name) { meta_.experiment = std::move(name); }

  /// Wall-clock span covered by the trace (latest end time).
  [[nodiscard]] Seconds span() const noexcept;

  // The TraceSource view. A pass shreds kDefaultBatchEvents rows at a
  // time into scratch local to the pass, so memory stays bounded and
  // concurrent const passes are safe.
  [[nodiscard]] const TraceMeta& meta() const override { return meta_; }
  void for_each_columns(ColumnMask mask,
                        const ColumnBatchVisitor& visit) const override;
  [[nodiscard]] double time_span() const override { return span(); }
  [[nodiscard]] std::uint64_t event_count() const override { return size(); }

  /// Append another trace's events (ranks must not overlap meaningfully;
  /// rank count becomes the max).
  void merge(const Trace& other);

  /// Sort events by start time (stable within equal timestamps).
  void sort_by_start();

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
  TraceMeta meta_;  ///< experiment and ranks; declares no event count
  std::vector<TraceEvent> events_;
};

}  // namespace eio::ipm
