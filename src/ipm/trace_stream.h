// Streaming trace serialization: format sniffing, the TSV kernels and
// the chunk index every trace source has (see trace_v3.h for v3).
//
// Two on-disk formats share one event schema: TSV ("# ipm-io-trace
// v1"), human-readable with one event per line, and the columnar,
// chunked, indexed binary v3 ("IPMIOB3\n"). The retired binary formats
// v1 and v2 are recognized only to be rejected by name.
//
// Every reader throws std::runtime_error on malformed, truncated or
// count-mismatched input — never a partial, silently-wrong trace.
// Both formats read through a chunk index: v3's footer
// (read_index_v3, then decode_chunk_v3 per chunk), or one stream_tsv
// pass over a TSV file (then read_chunk_tsv per chunk); every TSV row
// goes through parse_tsv_row. Trace's read/read_binary/load and
// FileTraceSource are built on them.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "ipm/columns.h"
#include "ipm/trace_event.h"

namespace eio::ipm {

/// Per-row visitor of the TSV reader: the event and the byte offset
/// of its row in the stream.
using EventVisitor = std::function<void(const TraceEvent&, std::uint64_t)>;

/// The serialization formats, as sniffed from leading magic bytes.
enum class TraceFormat : std::uint8_t { kTsv, kBinaryV3 };

/// Open a trace file for binary reading. Throws std::runtime_error
/// ("cannot open for reading: <path>") when it cannot be opened.
[[nodiscard]] std::ifstream open_trace(const std::string& path);

/// Identify the format from the first bytes of a stream (the stream is
/// left positioned at the start). Throws if it matches none, or if it
/// is a retired binary format (v1/v2).
[[nodiscard]] TraceFormat sniff_format(std::istream& in);

/// Parse one TSV row, its text without the line break: eight fields
/// separated by blanks, as write_tsv_event writes them, read with
/// std::from_chars. Throws std::runtime_error("malformed trace row:
/// <row>") when a field is missing or is not a value of its column
/// (a number in range, or an op name), or when anything but blanks
/// follows the last field.
[[nodiscard]] TraceEvent parse_tsv_row(std::string_view row);

/// The TSV reader: parse the header, call `visit` once per row in
/// stored order, and return the metadata. Throws std::runtime_error on
/// any malformed, truncated, or count-mismatched input.
TraceMeta stream_tsv(std::istream& in, const EventVisitor& visit);

/// Significant digits of the time columns in TSV rows: each is
/// formatted as printf's "%.9g" would, whatever the stream's state.
inline constexpr int kTsvPrecision = 9;

/// Streaming TSV writer. The header declares the event count, so
/// callers must know it before emitting.
void write_tsv_header(std::ostream& out, const std::string& experiment,
                      std::uint32_t ranks, std::uint64_t events);
void write_tsv_event(std::ostream& out, const TraceEvent& event);

// ---------------------------------------------------------------------------
// The chunk index of the binary format: chunk metadata + footer.

/// Index entry summarizing one chunk of events.
struct ChunkMeta {
  std::uint64_t offset = 0;     ///< stream offset of the chunk tag byte
  std::uint64_t events = 0;
  std::uint32_t op_mask = 0;    ///< bit (1 << op) per op type present
  RankId rank_lo = 0, rank_hi = 0;
  std::int32_t phase_lo = 0, phase_hi = 0;
  double t_lo = 0.0;            ///< earliest event start
  double t_hi = 0.0;            ///< latest event end
  std::uint64_t data_bytes = 0; ///< read+write payload bytes in the chunk
};

/// The chunk index of a trace: the footer of a v3 file, the one pass
/// over a TSV file, or what an in-memory Trace keeps as rows arrive.
struct TraceIndex {
  TraceMeta meta;  ///< declared_events set for files (footer or rows)
  std::vector<ChunkMeta> chunks;
  /// Stream offset where the chunks end: the footer tag byte of a v3
  /// file, the end of a TSV file's rows. Zero for an in-memory index.
  std::uint64_t footer_offset = 0;
};

/// Exact on-disk byte length of chunk `i` (for v3, tag byte through
/// last event), derived from consecutive index offsets — chunks are
/// stored back to back, so chunk i ends where chunk i+1 (or the
/// footer, or the end of the rows) begins. Requires a file's index
/// (footer_offset set).
[[nodiscard]] std::uint64_t chunk_byte_length(const TraceIndex& index,
                                              std::size_t i);

/// The TSV twin of read_chunk_v3: seek to chunk.offset, pull byte_len
/// bytes into `raw` (reused across calls), and parse its rows into
/// `scratch`. A short read, or a row count other than chunk.events,
/// throws std::runtime_error.
ColumnBatch read_chunk_tsv(std::istream& in, const ChunkMeta& chunk,
                           std::uint64_t byte_len, std::vector<char>& raw,
                           ColumnScratch& scratch, ColumnMask mask = kColAll);

}  // namespace eio::ipm
