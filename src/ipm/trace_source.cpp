#include "ipm/trace_source.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "common/check.h"
#include "ipm/trace_v3.h"
#include "obs/registry.h"

namespace eio::ipm {

namespace {

/// Shred a per-event pass into column batches of kDefaultBatchEvents
/// rows — the columnar view of a source without native chunks.
template <typename Pass>
void shred_pass(const Pass& pass, ColumnMask mask,
                const ColumnBatchVisitor& visit) {
  std::vector<TraceEvent> buffer;
  buffer.reserve(TraceSource::kDefaultBatchEvents);
  ColumnScratch scratch;
  auto flush = [&] {
    visit(shred(std::span<const TraceEvent>(buffer), scratch, mask));
    buffer.clear();
  };
  pass([&](const TraceEvent& e) {
    buffer.push_back(e);
    if (buffer.size() == TraceSource::kDefaultBatchEvents) flush();
  });
  if (!buffer.empty()) flush();
}

}  // namespace

void TraceSource::for_each_columns(ColumnMask mask,
                                   const ColumnBatchVisitor& visit) const {
  shred_pass([this](const EventVisitor& v) { for_each(v); }, mask, visit);
}

void TraceSource::for_each_columns_hinted(
    const ChunkHint& hint, ColumnMask mask,
    const ColumnBatchVisitor& visit) const {
  shred_pass([this, &hint](const EventVisitor& v) { for_each_hinted(hint, v); },
             mask, visit);
}

double TraceSource::time_span() const {
  double span = 0.0;
  for_each([&span](const TraceEvent& e) { span = std::max(span, e.end()); });
  return span;
}

std::uint64_t TraceSource::event_count() const {
  if (meta().declared_events) return *meta().declared_events;
  std::uint64_t n = 0;
  for_each([&n](const TraceEvent&) { ++n; });
  return n;
}

Trace TraceSource::materialize() const {
  Trace trace(meta().experiment, meta().ranks);
  if (meta().declared_events) trace.reserve(*meta().declared_events);
  for_each([&trace](const TraceEvent& e) { trace.add(e); });
  return trace;
}

MemoryTraceSource::MemoryTraceSource(const Trace& trace) : trace_(&trace) {
  meta_.experiment = trace.experiment();
  meta_.ranks = trace.ranks();
  meta_.declared_events = trace.size();
}

void MemoryTraceSource::for_each(const EventVisitor& visit) const {
  for (const TraceEvent& e : trace_->events()) visit(e);
}

void MemoryTraceSource::for_each_columns(
    ColumnMask mask, const ColumnBatchVisitor& visit) const {
  // One shred of the contiguous trace — a single columnar batch.
  if (!trace_->empty()) {
    visit(shred(std::span<const TraceEvent>(trace_->events()), scratch_, mask));
  }
}

void MemoryTraceSource::for_each_columns_hinted(
    const ChunkHint& hint, ColumnMask mask,
    const ColumnBatchVisitor& visit) const {
  (void)hint;  // full scan is a valid superset
  for_each_columns(mask, visit);
}

double MemoryTraceSource::time_span() const { return trace_->span(); }

std::uint64_t MemoryTraceSource::event_count() const { return trace_->size(); }

Trace MemoryTraceSource::materialize() const {
  Trace copy = *trace_;
  return copy;
}

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

void FileTraceSource::stream_tsv_pass(const EventVisitor& visit) const {
  (void)stream_tsv(reset_stream(), visit);
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

void FileTraceSource::scan_chunk_events(const ChunkHint* hint,
                                        const EventVisitor& visit) const {
  scan_chunk_columns(hint, kColAll, [&](const ColumnBatch& batch) {
    unshred(batch, batch_);
    for (const TraceEvent& e : batch_) visit(e);
  });
}

void FileTraceSource::for_each(const EventVisitor& visit) const {
  if (index_) {
    scan_chunk_events(nullptr, visit);
    return;
  }
  stream_tsv_pass(visit);
}

void FileTraceSource::for_each_hinted(const ChunkHint& hint,
                                      const EventVisitor& visit) const {
  if (index_) {
    scan_chunk_events(&hint, visit);
    return;
  }
  stream_tsv_pass(visit);
}

void FileTraceSource::for_each_columns(ColumnMask mask,
                                       const ColumnBatchVisitor& visit) const {
  if (index_) {
    scan_chunk_columns(nullptr, mask, visit);
    return;
  }
  TraceSource::for_each_columns(mask, visit);
}

void FileTraceSource::for_each_columns_hinted(
    const ChunkHint& hint, ColumnMask mask,
    const ColumnBatchVisitor& visit) const {
  if (index_) {
    scan_chunk_columns(&hint, mask, visit);
    return;
  }
  TraceSource::for_each_columns_hinted(hint, mask, visit);
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
