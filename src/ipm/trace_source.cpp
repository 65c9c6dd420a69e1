#include "ipm/trace_source.h"

#include <algorithm>
#include <stdexcept>

#include "common/check.h"
#include "ipm/trace_v3.h"
#include "obs/registry.h"

namespace eio::ipm {

double TraceSource::time_span() const {
  double span = 0.0;
  for_each_columns(kColStart | kColDuration, [&span](const ColumnBatch& b) {
    for (std::size_t i = 0; i < b.size(); ++i) {
      span = std::max(span, b.start[i] + b.duration[i]);
    }
  });
  return span;
}

ChunkReader::ChunkReader(const std::string& path) : in_(open_trace(path)) {}

ColumnBatch ChunkReader::read_columns(const TraceIndex& index,
                                      std::size_t chunk, ColumnMask mask) {
  return read_chunk_v3(in_, index.chunks[chunk],
                       chunk_byte_length(index, chunk), raw_, scratch_, mask);
}

FileTraceSource::FileTraceSource(std::string path) : path_(std::move(path)) {
  stream_ = open_trace(path_);
  format_ = sniff_format(stream_);
  if (format_ == TraceFormat::kBinaryV3) {
    index_ = read_index_v3(stream_);
    meta_ = index_->meta;
    stream_.close();
    reader_.emplace(path_);
    return;
  }
  // TSV keeps no trailing index, so validating the header costs one
  // pass; the constructor pays it once and meta() stays cheap
  // thereafter.
  std::uint64_t counted = 0;
  meta_ = stream_tsv(stream_, [&counted](const TraceEvent&) { ++counted; });
  if (!meta_.declared_events) meta_.declared_events = counted;
}

void FileTraceSource::for_each_columns(ColumnMask mask,
                                       const ColumnBatchVisitor& visit) const {
  for_each_columns_hinted(ChunkHint{}, mask, visit);
}

void FileTraceSource::for_each_columns_hinted(
    const ChunkHint& hint, ColumnMask mask,
    const ColumnBatchVisitor& visit) const {
  if (index_) {
    for (std::size_t i = 0; i < index_->chunks.size(); ++i) {
      if (!hint.admits(index_->chunks[i])) {
        OBS_COUNTER_ADD("scan.chunks_skipped", 1);
        continue;
      }
      OBS_COUNTER_ADD("scan.chunks_scanned", 1);
      visit(reader_->read_columns(*index_, i, mask));
    }
    return;
  }
  stream_.clear();
  stream_.seekg(0);
  EIO_CHECK_MSG(stream_.good(), "cannot rewind trace: " << path_);
  scratch_.clear();
  (void)stream_tsv(stream_, [&](const TraceEvent& e) {
    scratch_.push_back(e);
    if (scratch_.size() == kDefaultBatchEvents) {
      visit(scratch_.view(mask));
      scratch_.clear();
    }
  });
  if (scratch_.size() > 0) visit(scratch_.view(mask));
}

double FileTraceSource::time_span() const {
  if (!index_) return TraceSource::time_span();
  double span = 0.0;
  for (const ChunkMeta& c : index_->chunks) span = std::max(span, c.t_hi);
  return span;
}

std::uint64_t FileTraceSource::event_count() const {
  // Both backing formats declare their count (TSV via the header field,
  // v3 via the footer), and the constructor validated it.
  return meta_.declared_events.value_or(0);
}

}  // namespace eio::ipm
