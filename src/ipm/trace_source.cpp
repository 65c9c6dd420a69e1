#include "ipm/trace_source.h"

#include <algorithm>

#include "ipm/trace_v3.h"
#include "ipm/wire.h"
#include "obs/registry.h"

namespace eio::ipm {

void TraceSource::for_each_columns_hinted(
    const ChunkHint& hint, ColumnMask mask,
    const ColumnBatchVisitor& visit) const {
  const std::vector<ChunkMeta>& chunks = index().chunks;
  ChunkCursor cursor;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    if (!hint.admits(chunks[c])) {
      OBS_COUNTER_ADD("scan.chunks_skipped", 1);
      continue;
    }
    OBS_COUNTER_ADD("scan.chunks_scanned", 1);
    visit(decode_chunk(c, mask, cursor));
  }
}

double TraceSource::time_span() const {
  double span = 0.0;
  for (const ChunkMeta& c : index().chunks) span = std::max(span, c.t_hi);
  return span;
}

std::uint64_t TraceSource::event_count() const {
  std::uint64_t events = 0;
  for (const ChunkMeta& c : index().chunks) events += c.events;
  return events;
}

FileTraceSource::FileTraceSource(std::string path) : path_(std::move(path)) {
  std::ifstream in = open_trace(path_);
  format_ = sniff_format(in);
  if (format_ == TraceFormat::kBinaryV3) {
    index_ = read_index_v3(in);
    return;
  }
  // One pass indexes a TSV file: every kDefaultBatchEvents-th row's
  // offset starts a chunk, and every row folds into its chunk's meta.
  std::uint64_t rows = 0;
  index_.meta = stream_tsv(in, [&](const TraceEvent& e, std::uint64_t at) {
    if (rows++ % kDefaultBatchEvents == 0) {
      index_.chunks.push_back(ChunkMeta{.offset = at});
    }
    wire::fold_into(index_.chunks.back(), e);
  });
  if (!index_.meta.declared_events) index_.meta.declared_events = rows;
  in.clear();
  in.seekg(0, std::ios::end);
  index_.footer_offset = static_cast<std::uint64_t>(in.tellg());
}

ColumnBatch FileTraceSource::decode_chunk(std::size_t chunk, ColumnMask mask,
                                          ChunkCursor& cursor) const {
  if (!cursor.in.is_open()) cursor.in = open_trace(path_);
  const auto read = format_ == TraceFormat::kBinaryV3 ? read_chunk_v3
                                                      : read_chunk_tsv;
  return read(cursor.in, index_.chunks[chunk], chunk_byte_length(index_, chunk),
              cursor.raw, cursor.scratch, mask);
}

}  // namespace eio::ipm
