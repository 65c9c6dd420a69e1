// The in-memory Trace: its chunk index, its chunks and its
// serializations.
// All parsing, validation and encoding lives in the streaming kernels
// (trace_stream.h for TSV, trace_v3.h for v3); a Trace is what you get
// when their rows are appended to a vector.
#include "ipm/trace.h"

#include <algorithm>
#include <fstream>
#include <span>
#include <stdexcept>

#include "common/check.h"
#include "ipm/trace_stream.h"
#include "ipm/trace_v3.h"
#include "ipm/wire.h"

namespace eio::ipm {

void Trace::add(const TraceEvent& event) {
  events_.push_back(event);
  index_row(events_.size() - 1);
}

void Trace::index_row(std::size_t row) {
  if (row % kDefaultBatchEvents == 0) index_.chunks.emplace_back();
  wire::fold_into(index_.chunks.back(), events_[row]);
}

ColumnBatch Trace::decode_chunk(std::size_t chunk, ColumnMask mask,
                                ChunkCursor& cursor) const {
  const std::size_t first = chunk * kDefaultBatchEvents;
  const std::size_t n = std::min(kDefaultBatchEvents, events_.size() - first);
  return shred(std::span(events_).subspan(first, n), cursor.scratch, mask);
}

void Trace::write(std::ostream& out) const {
  write_tsv_header(out, experiment(), ranks(), events_.size());
  for (const TraceEvent& e : events_) write_tsv_event(out, e);
}

Trace Trace::read(std::istream& in) {
  Trace trace;
  const TraceMeta meta =
      stream_tsv(in, [&trace](const TraceEvent& e, std::uint64_t) {
        trace.add(e);
      });
  trace.set_experiment(meta.experiment);
  trace.set_ranks(meta.ranks);
  return trace;
}

void Trace::write_binary_v3(std::ostream& out) const {
  TraceWriterV3 writer(out, experiment(), ranks());
  for (const TraceEvent& e : events_) writer.add(e);
  writer.finish();
}

Trace Trace::read_binary(std::istream& in) {
  if (sniff_format(in) != TraceFormat::kBinaryV3) {
    throw std::runtime_error("not a binary ipm-io trace (missing magic)");
  }
  const TraceIndex index = read_index_v3(in);
  Trace trace(index.meta.experiment, index.meta.ranks);
  std::vector<char> raw;
  ColumnScratch scratch;
  for (std::size_t i = 0; i < index.chunks.size(); ++i) {
    const ColumnBatch batch = read_chunk_v3(
        in, index.chunks[i], chunk_byte_length(index, i), raw, scratch);
    for (std::size_t row = 0; row < batch.size(); ++row) {
      trace.add(batch.event_at(row));
    }
  }
  return trace;
}

void Trace::save(const std::string& path) const {
  std::ofstream out(path);
  EIO_CHECK_MSG(out.good(), "cannot open for writing: " << path);
  write(out);
  EIO_CHECK_MSG(out.good(), "write failed: " << path);
}

void Trace::save_binary_v3(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  EIO_CHECK_MSG(out.good(), "cannot open for writing: " << path);
  write_binary_v3(out);
  EIO_CHECK_MSG(out.good(), "write failed: " << path);
}

Trace Trace::load(const std::string& path) {
  std::ifstream in = open_trace(path);
  return sniff_format(in) == TraceFormat::kTsv ? read(in) : read_binary(in);
}

}  // namespace eio::ipm
