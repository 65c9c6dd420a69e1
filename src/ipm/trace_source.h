// TraceSource: the analysis side of the streaming pipeline.
//
// Every consumer of a trace — eiotrace subcommands, the reporters, the
// streaming accumulators in core — pulls events through this interface
// instead of demanding a materialized std::vector<TraceEvent>. Every
// source is chunked and indexed: a TraceIndex (one ChunkMeta per
// chunk) plus decode_chunk into a caller's ChunkCursor. A v3 file's
// index is its footer; a TSV file is indexed by one pass when opened
// (every 4,096th row's offset); an in-memory ipm::Trace indexes rows
// as they arrive. File sources hold only the index: O(1) memory in
// the event count.
//
// The rest is written once over those two: for_each_columns(_hinted)
// (one ColumnBatch per chunk a ChunkHint admits, masked columns only),
// time_span() and event_count(). ParallelTraceScanner reads any source
// the same way, one cursor per worker, so concurrent scans are safe.
// TSV and in-memory rows are shredded into the shape a v3 chunk
// decodes to, so consumers see the identical value sequence from any
// backing store.
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "ipm/columns.h"
#include "ipm/trace_event.h"
#include "ipm/trace_stream.h"

namespace eio::ipm {

/// A conservative pre-filter for indexed scans: a chunk is skipped only
/// when its footer metadata proves no event can match. Hints are a
/// superset promise — visitors still see non-matching events inside
/// surviving chunks and must filter exactly.
struct ChunkHint {
  std::optional<posix::OpType> op;
  /// Op *set* pre-filter: when nonzero, a chunk is skipped unless it
  /// contains at least one op whose bit (1 << op) is set. Generalizes
  /// the single-op pin for multi-op scans (e.g. a filter with no op pin
  /// keeps read|write; a fused write+read summary pass unions both pins).
  /// 0 means unconstrained.
  std::uint32_t op_mask = 0;
  std::optional<std::int32_t> phase;
  std::optional<RankId> rank;
  /// Time window [t_lo, t_hi]: chunks whose [t_lo, t_hi] span does not
  /// intersect the window are skipped, so windowed scans are selective
  /// reads too.
  std::optional<double> t_lo;
  std::optional<double> t_hi;

  /// True when the hinted chunk may contain matching events.
  [[nodiscard]] bool admits(const ChunkMeta& chunk) const noexcept {
    if (op && (chunk.op_mask & (1u << static_cast<unsigned>(*op))) == 0) {
      return false;
    }
    if (op_mask != 0 && (chunk.op_mask & op_mask) == 0) return false;
    if (phase && (*phase < chunk.phase_lo || *phase > chunk.phase_hi)) {
      return false;
    }
    if (rank && (*rank < chunk.rank_lo || *rank > chunk.rank_hi)) {
      return false;
    }
    if (t_lo && chunk.t_hi < *t_lo) return false;
    if (t_hi && chunk.t_lo > *t_hi) return false;
    return true;
  }

  /// The op-set constraint both `op` and `op_mask` express together
  /// (0 = unconstrained).
  [[nodiscard]] std::uint32_t effective_op_mask() const noexcept {
    std::uint32_t m = op ? (1u << static_cast<unsigned>(*op)) : 0u;
    if (op_mask != 0) m = op ? (m & op_mask) : op_mask;
    return m;
  }

  /// The weakest hint admitting everything either input admits — what
  /// a fused pass over several filters must scan. Fields where the
  /// inputs disagree are dropped (hints are a superset promise, so
  /// widening is always sound); op pins union into op_mask.
  [[nodiscard]] static ChunkHint union_of(const ChunkHint& a,
                                          const ChunkHint& b) noexcept {
    ChunkHint u;
    std::uint32_t ma = a.effective_op_mask();
    std::uint32_t mb = b.effective_op_mask();
    if (ma != 0 && mb != 0) u.op_mask = ma | mb;
    if (a.phase && b.phase && *a.phase == *b.phase) u.phase = a.phase;
    if (a.rank && b.rank && *a.rank == *b.rank) u.rank = a.rank;
    if (a.t_lo && b.t_lo) u.t_lo = std::min(*a.t_lo, *b.t_lo);
    if (a.t_hi && b.t_hi) u.t_hi = std::max(*a.t_hi, *b.t_hi);
    return u;
  }
};

/// One reader's decode state, reused across the chunks it reads: a
/// file source opens `in` on its first read and reads each chunk into
/// `raw`; every source decodes into `scratch`. A cursor serves one
/// thread and one source, so a steady-state decode allocates nothing
/// and a reader holds O(largest chunk) whatever the trace size.
struct ChunkCursor {
  std::ifstream in;
  std::vector<char> raw;
  ColumnScratch scratch;
};

/// A chunked, indexed, multi-pass event stream with job metadata.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Rows per chunk of a TSV file or an in-memory trace (and the v3
  /// writer's default), and per capture batch.
  static constexpr std::size_t kDefaultBatchEvents = 4096;

  /// The chunk index: job metadata plus one ChunkMeta per chunk, in
  /// event order.
  [[nodiscard]] virtual const TraceIndex& index() const = 0;

  /// Decode chunk `chunk` as a ColumnBatch with (at least) the masked
  /// columns materialized; its spans alias `cursor` and stay valid
  /// until the cursor's next decode. Throws std::runtime_error when a
  /// file no longer holds the chunk in full (say, it was truncated
  /// after the index was read).
  [[nodiscard]] virtual ColumnBatch decode_chunk(std::size_t chunk,
                                                 ColumnMask mask,
                                                 ChunkCursor& cursor) const = 0;

  /// Job-level metadata (experiment name, rank count, event count when
  /// the backing format declares it).
  [[nodiscard]] const TraceMeta& meta() const { return index().meta; }

  /// Visit every event as columnar batches, one per chunk, with (at
  /// least) the masked columns materialized. May be called repeatedly;
  /// each call replays the full stream. Column order is event order.
  void for_each_columns(ColumnMask mask,
                        const ColumnBatchVisitor& visit) const {
    for_each_columns_hinted(ChunkHint{}, mask, visit);
  }

  /// Visit the batches of chunks a hint admits — a superset of the
  /// matching events, so visitors still filter exactly.
  void for_each_columns_hinted(const ChunkHint& hint, ColumnMask mask,
                               const ColumnBatchVisitor& visit) const;

  /// Wall-clock span covered by the stream (latest event end time; 0
  /// when empty) — the batch Trace::span() semantics, read from the
  /// chunk index.
  [[nodiscard]] double time_span() const;

  /// Total events.
  [[nodiscard]] std::uint64_t event_count() const;
};

/// Streams a trace file (TSV or binary v3) from disk on every pass,
/// holding only its chunk index: a v3 file's footer, or the one pass
/// that indexes a TSV file when it is opened (which also checks every
/// row and the declared count, so a bad file fails here, before any
/// pass).
class FileTraceSource final : public TraceSource {
 public:
  /// Opens the file once to sniff the format and build the index (for
  /// v3 this reads just header + footer, not the events). Throws
  /// std::runtime_error if unreadable, unrecognized, malformed or in a
  /// retired binary format.
  explicit FileTraceSource(std::string path);

  [[nodiscard]] const TraceIndex& index() const override { return index_; }
  [[nodiscard]] ColumnBatch decode_chunk(std::size_t chunk, ColumnMask mask,
                                         ChunkCursor& cursor) const override;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] TraceFormat format() const noexcept { return format_; }

 private:
  std::string path_;
  TraceFormat format_;
  TraceIndex index_;
};

}  // namespace eio::ipm
