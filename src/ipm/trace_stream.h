// Streaming trace serialization: format sniffing, the TSV kernels and
// the chunk index shared with binary v3 (see trace_v3.h).
//
// Two on-disk formats share one event schema: TSV ("# ipm-io-trace
// v1"), human-readable with one event per line, and the columnar,
// chunked, indexed binary v3 ("IPMIOB3\n"). The retired binary formats
// v1 and v2 are recognized only to be rejected by name.
//
// Every reader throws std::runtime_error on malformed, truncated or
// count-mismatched input — never a partial, silently-wrong trace.
// TSV has one reader, stream_tsv; v3 has one, the footer index
// (read_index_v3) plus the chunk decoder (decode_chunk_v3). Trace's
// read/read_binary/load and FileTraceSource are built on them.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "ipm/trace_event.h"

namespace eio::ipm {

/// Per-event visitor used by all streaming readers.
using EventVisitor = std::function<void(const TraceEvent&)>;

/// The serialization formats, as sniffed from leading magic bytes.
enum class TraceFormat : std::uint8_t { kTsv, kBinaryV3 };

/// Open a trace file for binary reading. Throws std::runtime_error
/// ("cannot open for reading: <path>") when it cannot be opened.
[[nodiscard]] std::ifstream open_trace(const std::string& path);

/// Identify the format from the first bytes of a stream (the stream is
/// left positioned at the start). Throws if it matches none, or if it
/// is a retired binary format (v1/v2).
[[nodiscard]] TraceFormat sniff_format(std::istream& in);

/// Streaming TSV reader: parse the header, call `visit` once per event
/// in stored order, and return the metadata. Throws std::runtime_error
/// on any malformed, truncated, or count-mismatched input.
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

/// The footer index of a v3 trace.
struct TraceIndex {
  TraceMeta meta;  ///< declared_events always set (footer total)
  std::vector<ChunkMeta> chunks;
  /// Stream offset of the footer tag byte (chunks end here). Zero for
  /// indexes not produced by read_index_v3 (e.g. default-constructed).
  std::uint64_t footer_offset = 0;
};

/// Exact on-disk byte length of chunk `i` (tag byte through last
/// event), derived from consecutive index offsets — chunks are written
/// back to back, so chunk i ends where chunk i+1 (or the footer)
/// begins. Requires an index from read_index_v3 (footer_offset set).
[[nodiscard]] std::uint64_t chunk_byte_length(const TraceIndex& index,
                                              std::size_t i);

}  // namespace eio::ipm
