#include "ipm/trace_file.h"

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "common/check.h"
#include "ipm/trace_v3.h"
#include "obs/registry.h"

namespace eio::ipm {

PendingFile::PendingFile(std::string path)
    : path_(std::move(path)),
      temp_(path_ + ".tmp"),
      out_(temp_, std::ios::binary | std::ios::trunc) {
  if (!out_.good()) {
    throw std::runtime_error("cannot open for writing: " + temp_);
  }
}

PendingFile::~PendingFile() {
  if (committed_) return;
  close();
  std::remove(temp_.c_str());
}

bool PendingFile::close() {
  if (closed_) return ok_;
  closed_ = true;
  ok_ = out_.good();
  out_.close();
  ok_ = ok_ && !out_.fail();
  return ok_;
}

void PendingFile::commit() {
  EIO_CHECK_MSG(!committed_, "PendingFile committed twice: " << path_);
  if (!close()) throw std::runtime_error("write failed: " + path_);
  std::error_code ec;
  std::filesystem::rename(temp_, path_, ec);
  if (ec) {
    throw std::runtime_error("cannot rename " + temp_ + " to " + path_ +
                             ": " + ec.message());
  }
  committed_ = true;
}

TraceFileSink::TraceFileSink(std::string path, TraceFormat format,
                             std::string experiment, std::uint32_t ranks)
    : file_(std::move(path)), experiment_(std::move(experiment)),
      ranks_(ranks) {
  if (format == TraceFormat::kBinaryV3) {
    writer_ = std::make_unique<TraceWriterV3>(file_.stream(), experiment_,
                                              ranks_);
  } else {
    rows_ = std::make_unique<PendingFile>(file_.path() + ".rows");
  }
}

TraceFileSink::~TraceFileSink() = default;

void TraceFileSink::add_batch(const ColumnBatch& batch) {
  events_ += batch.size();
  if (writer_) {
    writer_->add_batch(batch);
    return;
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    write_tsv_event(rows_->stream(), batch.event_at(i));
  }
}

void TraceFileSink::finish() {
  if (finished_) return;
  finished_ = true;
  std::uint64_t chunks = 0;
  try {
    if (writer_) {
      writer_->finish();
      chunks = writer_->chunks_written();
      writer_.reset();
    } else {
      finish_tsv();
    }
  } catch (const std::exception&) {
    ok_ = false;
  }
  const std::streamoff bytes = file_.stream().tellp();
  ok_ = file_.close() && ok_;
  if (!ok_) return;
  OBS_COUNTER_ADD("ipm.trace_bytes_written", bytes);
  if (chunks > 0) OBS_COUNTER_ADD("ipm.trace_chunks_written", chunks);
}

void TraceFileSink::finish_tsv() {
  if (!rows_->close()) throw std::runtime_error("write failed");
  std::ostream& out = file_.stream();
  write_tsv_header(out, experiment_, ranks_, events_);
  if (events_ > 0) {
    // Inserting an empty streambuf would set failbit, hence the guard.
    std::ifstream rows(rows_->temp_path(), std::ios::binary);
    out << rows.rdbuf();
  }
  rows_.reset();
}

void TraceFileSink::commit() {
  EIO_CHECK_MSG(finished_, "TraceFileSink::commit() before finish()");
  if (!ok_) throw std::runtime_error("write failed: " + file_.path());
  file_.commit();
}

}  // namespace eio::ipm
