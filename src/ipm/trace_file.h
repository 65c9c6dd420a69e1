// Trace files written while the run that produces them executes.
//
// A TraceFileSink sits in a run's sink chain beside the in-situ
// statistics, so saving a trace costs O(chunk) memory instead of the
// O(events) event vector a materialized Trace keeps until the whole
// ensemble ends. Every file is written under a temporary name beside
// its target and renamed into place only on commit(): a run that
// fails, a decode that throws mid-stream or a caller that gives up
// leaves no partial file that looks like a trace.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>

#include "ipm/sink.h"
#include "ipm/trace_stream.h"

namespace eio::ipm {

class TraceWriterV3;

/// An output file written as `<path>.tmp` and renamed to `<path>` on
/// commit(). Destroyed uncommitted, it removes the temporary.
class PendingFile {
 public:
  /// Opens `<path>.tmp` for binary writing, truncating it. Throws
  /// std::runtime_error ("cannot open for writing: ...") on failure.
  explicit PendingFile(std::string path);
  ~PendingFile();

  PendingFile(const PendingFile&) = delete;
  PendingFile& operator=(const PendingFile&) = delete;

  [[nodiscard]] std::ostream& stream() noexcept { return out_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] const std::string& temp_path() const noexcept { return temp_; }

  /// Close the descriptor (idempotent); false if any write failed.
  bool close();

  /// Close, then rename the temporary over `path`. Throws
  /// std::runtime_error if a write or the rename failed.
  void commit();

 private:
  std::string path_;
  std::string temp_;
  std::ofstream out_;
  bool closed_ = false;
  bool ok_ = true;
  bool committed_ = false;
};

/// Capture sink that streams one run's events into a TSV or v3 trace
/// file. The bytes equal Trace::save / Trace::save_binary_v3 of the
/// same events. v3 chunks go out as they fill; a TSV header declares
/// the event count, so the rows stream to a second temporary and are
/// appended behind the header at finish().
class TraceFileSink final : public EventSink {
 public:
  TraceFileSink(std::string path, TraceFormat format, std::string experiment,
                std::uint32_t ranks);
  ~TraceFileSink() override;

  void add_batch(const ColumnBatch& batch) override;

  /// Complete the file under its temporary name and close every
  /// descriptor it holds. Idempotent and never throws: a failed write
  /// is reported by good() and commit(). Flushes the
  /// ipm.trace_bytes_written (and, for v3, ipm.trace_chunks_written)
  /// counters once per file.
  void finish() override;

  /// True until a write fails.
  [[nodiscard]] bool good() const noexcept { return ok_; }

  /// Rename the finished file to its target path. Requires finish();
  /// throws std::runtime_error if any write failed.
  void commit();

  [[nodiscard]] const std::string& path() const noexcept {
    return file_.path();
  }
  [[nodiscard]] std::uint64_t events_written() const noexcept {
    return events_;
  }

 private:
  void finish_tsv();

  // Declaration order matters: the v3 writer flushes into file_ when
  // destroyed, so it must be destroyed first.
  PendingFile file_;
  std::unique_ptr<PendingFile> rows_;      ///< TSV event rows until finish()
  std::unique_ptr<TraceWriterV3> writer_;  ///< v3 encoder until finish()
  std::string experiment_;
  std::uint32_t ranks_;
  std::uint64_t events_ = 0;
  bool finished_ = false;
  bool ok_ = true;
};

}  // namespace eio::ipm
