// Columnar event batches: the one form an event takes after capture.
//
// The v3 format stores each event field as its own stream, so a
// decoded chunk is naturally a struct-of-arrays: parallel spans, one
// per field, all the same length. Every consumer — the capture sinks
// the Monitor feeds, the analysis kernels, the file writers — takes a
// ColumnBatch and touches only the columns it needs (a filter over
// op + bytes + duration reads three dense arrays instead of striding
// through 64-byte TraceEvent structs), and the decoder can skip
// columns a scan never reads via a ColumnMask. Rows enter the columnar
// world at its edges: the Monitor appends each call to a ColumnScratch,
// and shred() transposes an in-memory Trace or parsed TSV rows.
//
// Determinism contract: column order is event order. A kernel that
// walks a ColumnBatch index 0..events-1 performs the identical
// floating-point operation sequence whatever the batch boundaries, so
// a live capture, a TSV replay and a v3 decode agree byte for byte.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "ipm/trace_event.h"

namespace eio::ipm {

/// Bitmask selecting which columns a consumer needs decoded. Spans of
/// unmasked columns are left empty (size 0), never partially filled.
using ColumnMask = std::uint32_t;
inline constexpr ColumnMask kColStart = 1u << 0;
inline constexpr ColumnMask kColDuration = 1u << 1;
inline constexpr ColumnMask kColOp = 1u << 2;
inline constexpr ColumnMask kColRank = 1u << 3;
inline constexpr ColumnMask kColFile = 1u << 4;
inline constexpr ColumnMask kColOffset = 1u << 5;
inline constexpr ColumnMask kColBytes = 1u << 6;
inline constexpr ColumnMask kColPhase = 1u << 7;
inline constexpr ColumnMask kColAll = 0xFF;

struct ColumnBatch;

/// Caller-owned backing storage for a ColumnBatch, reused across
/// chunks so a steady-state decode allocates nothing. It doubles as a
/// row builder: push_back() grows every column by one row, and view()
/// hands the rows on as one batch.
struct ColumnScratch {
  std::vector<double> start;
  std::vector<double> duration;
  std::vector<std::uint8_t> op;
  std::vector<RankId> rank;
  std::vector<FileId> file;
  std::vector<Bytes> offset;
  std::vector<Bytes> bytes;
  std::vector<std::int32_t> phase;
  std::vector<char> blob;  ///< staging for compressed column payloads

  /// Rows held by a builder (every column has this length).
  [[nodiscard]] std::size_t size() const noexcept { return start.size(); }
  /// Drop every row, keeping capacity.
  void clear() noexcept;
  /// Append one row to every column.
  void push_back(const TraceEvent& e);
  /// The held rows as a batch; unmasked columns stay empty.
  [[nodiscard]] ColumnBatch view(ColumnMask mask = kColAll) const;
};

/// One decoded run of consecutive events, as parallel column spans.
/// Spans alias a ColumnScratch (for a v3 chunk, the decoder's scratch)
/// and are valid until the next decode into the same scratch.
struct ColumnBatch {
  std::size_t events = 0;
  std::span<const double> start;
  std::span<const double> duration;
  std::span<const std::uint8_t> op;  ///< posix::OpType codes
  std::span<const RankId> rank;
  std::span<const FileId> file;
  std::span<const Bytes> offset;
  std::span<const Bytes> bytes;
  std::span<const std::int32_t> phase;

  [[nodiscard]] std::size_t size() const noexcept { return events; }
  [[nodiscard]] bool empty() const noexcept { return events == 0; }

  /// Row view of one index — requires every column decoded (kColAll).
  [[nodiscard]] TraceEvent event_at(std::size_t i) const {
    TraceEvent e;
    e.start = start[i];
    e.duration = duration[i];
    e.op = static_cast<posix::OpType>(op[i]);
    e.rank = rank[i];
    e.file = file[i];
    e.offset = offset[i];
    e.bytes = bytes[i];
    e.phase = phase[i];
    return e;
  }

  /// Rows [first, first + count) as a batch over the same storage;
  /// columns empty here stay empty.
  [[nodiscard]] ColumnBatch slice(std::size_t first, std::size_t count) const;
};

/// Per-columnar-batch visitor (one call per decoded chunk).
using ColumnBatchVisitor = std::function<void(const ColumnBatch&)>;

/// Transpose rows into columns (only the masked columns are exposed).
[[nodiscard]] ColumnBatch shred(std::span<const TraceEvent> events,
                                ColumnScratch& scratch,
                                ColumnMask mask = kColAll);

}  // namespace eio::ipm
