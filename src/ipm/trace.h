// IPM-I/O trace records and trace containers.
//
// IPM-I/O "collects timestamped trace entries containing the libc
// call, its arguments, and its duration", associating events on the
// same file through a table of open descriptors. TraceEvent carries
// exactly that, plus the IPM region (phase) active when the call
// completed. A Trace is the per-job collection, with a text
// serialization for offline analysis and a merge operation for
// combining per-rank or per-run traces.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "posix/hooks.h"

namespace eio::ipm {

/// One traced POSIX call.
struct TraceEvent {
  Seconds start = 0.0;
  Seconds duration = 0.0;
  posix::OpType op = posix::OpType::kRead;
  RankId rank = 0;
  FileId file = kInvalidFile;
  Bytes offset = 0;
  Bytes bytes = 0;
  std::int32_t phase = 0;

  [[nodiscard]] Seconds end() const noexcept { return start + duration; }
};

/// A job's collected events plus job-level metadata.
class Trace {
 public:
  Trace() = default;
  Trace(std::string experiment, std::uint32_t ranks)
      : experiment_(std::move(experiment)), ranks_(ranks) {}

  void add(const TraceEvent& event) { events_.push_back(event); }
  void reserve(std::size_t n) { events_.reserve(n); }

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] const std::string& experiment() const noexcept {
    return experiment_;
  }
  [[nodiscard]] std::uint32_t ranks() const noexcept { return ranks_; }
  void set_ranks(std::uint32_t ranks) { ranks_ = ranks; }
  void set_experiment(std::string name) { experiment_ = std::move(name); }

  /// Wall-clock span covered by the trace (latest end time).
  [[nodiscard]] Seconds span() const noexcept;

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
  /// Parse a stream produced by write_binary_v3(). Throws
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
  std::string experiment_;
  std::uint32_t ranks_ = 0;
  std::vector<TraceEvent> events_;
};

}  // namespace eio::ipm
