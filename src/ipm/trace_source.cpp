#include "ipm/trace_source.h"

#include <algorithm>
#include <span>
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

MemoryTraceSource::MemoryTraceSource(const Trace& trace) : trace_(&trace) {
  meta_.experiment = trace.experiment();
  meta_.ranks = trace.ranks();
  meta_.declared_events = trace.size();
}

void MemoryTraceSource::for_each_columns(
    ColumnMask mask, const ColumnBatchVisitor& visit) const {
  // One shred of the contiguous trace — a single columnar batch.
  if (!trace_->empty()) {
    visit(shred(std::span<const TraceEvent>(trace_->events()), scratch_, mask));
  }
}

double MemoryTraceSource::time_span() const { return trace_->span(); }

std::uint64_t MemoryTraceSource::event_count() const { return trace_->size(); }

FileTraceSource::FileTraceSource(std::string path) : path_(std::move(path)) {
  stream_ = open_trace(path_);
  format_ = sniff_format(stream_);
  if (format_ == TraceFormat::kBinaryV3) {
    index_ = read_index_v3(stream_);
    meta_ = index_->meta;
    // Prefer decoding chunks straight from page cache; a failed map
    // is not fatal — passes fall back to the cached stream.
    try {
      map_ = std::make_unique<MappedFile>(path_);
    } catch (const std::runtime_error&) {
      map_ = nullptr;
    }
    return;
  }
  // TSV keeps no trailing index, so validating the header costs one
  // pass; the constructor pays it once and meta() stays cheap
  // thereafter.
  std::uint64_t counted = 0;
  meta_ = stream_tsv(stream_, [&counted](const TraceEvent&) { ++counted; });
  if (!meta_.declared_events) meta_.declared_events = counted;
}

std::istream& FileTraceSource::reset_stream() const {
  stream_.clear();
  stream_.seekg(0);
  EIO_CHECK_MSG(stream_.good(), "cannot rewind trace: " << path_);
  return stream_;
}

void FileTraceSource::stream_tsv_pass(ColumnMask mask,
                                      const ColumnBatchVisitor& visit) const {
  scratch_.clear();
  (void)stream_tsv(reset_stream(), [&](const TraceEvent& e) {
    scratch_.push_back(e);
    if (scratch_.size() == kDefaultBatchEvents) {
      visit(scratch_.view(mask));
      scratch_.clear();
    }
  });
  if (scratch_.size() > 0) visit(scratch_.view(mask));
}

ColumnBatch FileTraceSource::decode_columns(std::size_t i,
                                            ColumnMask mask) const {
  const ChunkMeta& chunk = index_->chunks[i];
  std::uint64_t byte_len = chunk_byte_length(*index_, i);
  if (map_) {
    // Zero-copy: the index validated offsets against the footer, and
    // the footer against the file size, so this sub-span is in-bounds.
    return decode_chunk_v3(map_->data() + chunk.offset,
                           static_cast<std::size_t>(byte_len), chunk,
                           scratch_, mask);
  }
  return read_chunk_v3(stream_, chunk, byte_len, raw_, scratch_, mask);
}

void FileTraceSource::scan_chunk_columns(
    const ChunkHint* hint, ColumnMask mask,
    const ColumnBatchVisitor& visit) const {
  (void)reset_stream();
  for (std::size_t i = 0; i < index_->chunks.size(); ++i) {
    const ChunkMeta& chunk = index_->chunks[i];
    if (hint && !hint->admits(chunk)) {
      OBS_COUNTER_ADD("scan.chunks_skipped", 1);
      continue;
    }
    OBS_COUNTER_ADD("scan.chunks_scanned", 1);
    visit(decode_columns(i, mask));
  }
}

void FileTraceSource::for_each_columns(ColumnMask mask,
                                       const ColumnBatchVisitor& visit) const {
  if (index_) {
    scan_chunk_columns(nullptr, mask, visit);
    return;
  }
  stream_tsv_pass(mask, visit);
}

void FileTraceSource::for_each_columns_hinted(
    const ChunkHint& hint, ColumnMask mask,
    const ColumnBatchVisitor& visit) const {
  if (index_) {
    scan_chunk_columns(&hint, mask, visit);
    return;
  }
  stream_tsv_pass(mask, visit);
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
