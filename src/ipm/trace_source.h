// TraceSource: the analysis side of the streaming pipeline.
//
// Every consumer of a trace — eiotrace subcommands, the reporters, the
// streaming accumulators in core — pulls events through this interface
// instead of demanding a materialized std::vector<TraceEvent>. There
// is one read path per backing store: an in-memory ipm::Trace is itself
// a TraceSource (it shreds its rows per pass), and a FileTraceSource
// replays a trace file on every pass, keeping memory O(1) in the event
// count. A v3 file is read through exactly one decoder — its footer
// index plus a ChunkReader, the same reader the chunk-parallel
// ParallelTraceScanner gives each worker — and a ChunkHint lets the
// source skip whole chunks whose footer metadata cannot match, turning
// filtered scans into selective reads.
//
// One pass family is offered: for_each_columns(_hinted), one
// ColumnBatch per run of consecutive events — a decoded chunk, or a
// kDefaultBatchEvents run of TSV or in-memory rows — restricted to a
// ColumnMask. There is no per-event visitor: on v3 files unneeded
// columns are never decoded — each chunk is read into a buffer the
// reader reuses, so a pass holds one chunk, never the file — while TSV
// and in-memory sources shred their rows, so consumers see the
// identical value sequence from any backing store.
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
  /// the single-op pin for multi-op scans (e.g. data_calls_only keeps
  /// read|write; a fused write+read summary pass unions both pins).
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

/// Abstract multi-pass event stream with job metadata.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Events buffered per batch when a backing format has no natural
  /// chunking (matches the v3 writer's default chunk size).
  static constexpr std::size_t kDefaultBatchEvents = 4096;

  /// Job-level metadata (experiment name, rank count, event count when
  /// the backing format declares it).
  [[nodiscard]] virtual const TraceMeta& meta() const = 0;

  /// Visit every event as columnar batches with (at least) the masked
  /// columns materialized. May be called repeatedly; each call replays
  /// the full stream. Column order is event order.
  virtual void for_each_columns(ColumnMask mask,
                                const ColumnBatchVisitor& visit) const = 0;

  /// Visit the batches of chunks a hint admits — a superset of the
  /// matching events, so visitors still filter exactly. Default: full
  /// scan (exact for any source).
  virtual void for_each_columns_hinted(const ChunkHint& hint, ColumnMask mask,
                                       const ColumnBatchVisitor& visit) const {
    (void)hint;
    for_each_columns(mask, visit);
  }

  /// Wall-clock span covered by the stream (latest event end time; 0
  /// when empty) — the batch Trace::span() semantics. Default: one
  /// pass; indexed sources answer from chunk metadata.
  [[nodiscard]] virtual double time_span() const;

  /// Total events.
  [[nodiscard]] virtual std::uint64_t event_count() const = 0;
};

/// Decodes the indexed chunks of one v3 file: each chunk is read with
/// one sized read into a buffer the reader reuses, then decoded from
/// it. The column scratch is reused too, so a steady-state decode
/// allocates nothing and a reader holds O(largest chunk) whatever the
/// file size. One reader serves one thread.
class ChunkReader {
 public:
  /// Open `path` for this reader. Throws std::runtime_error when it
  /// cannot be opened.
  explicit ChunkReader(const std::string& path);

  /// Decode one indexed chunk as a ColumnBatch with only the masked
  /// columns materialized; spans stay valid until the next read. A
  /// chunk the file no longer holds in full (say, it was truncated
  /// after the index was read) throws std::runtime_error.
  [[nodiscard]] ColumnBatch read_columns(const TraceIndex& index,
                                         std::size_t chunk, ColumnMask mask);

 private:
  std::ifstream in_;
  std::vector<char> raw_;
  ColumnScratch scratch_;
};

/// Streams a trace file (TSV or binary v3) from disk on every pass.
/// Holds only the header metadata — plus, for v3, the footer index,
/// which the hinted passes use to skip chunks, and one ChunkReader.
/// The format is sniffed and the metadata read once: a
/// ParallelTraceScanner built from the source borrows its index and
/// path. Passes mutate the cached stream and the reader's buffers, so
/// one FileTraceSource must not run concurrent passes — the scanner
/// decodes through per-thread readers.
class FileTraceSource final : public TraceSource {
 public:
  /// Opens the file once to sniff the format and cache metadata (for
  /// v3 this reads just header + footer, not the events). Throws
  /// std::runtime_error if unreadable, unrecognized or in a retired
  /// binary format.
  explicit FileTraceSource(std::string path);

  [[nodiscard]] const TraceMeta& meta() const override { return meta_; }
  void for_each_columns(ColumnMask mask,
                        const ColumnBatchVisitor& visit) const override;
  void for_each_columns_hinted(const ChunkHint& hint, ColumnMask mask,
                               const ColumnBatchVisitor& visit) const override;
  [[nodiscard]] double time_span() const override;
  [[nodiscard]] std::uint64_t event_count() const override;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] TraceFormat format() const noexcept { return format_; }
  /// The footer index; nullopt for TSV files.
  [[nodiscard]] const std::optional<TraceIndex>& index() const noexcept {
    return index_;
  }

 private:
  std::string path_;
  TraceFormat format_;
  TraceMeta meta_;
  std::optional<TraceIndex> index_;
  mutable std::ifstream stream_;                ///< TSV passes
  mutable std::optional<ChunkReader> reader_;   ///< v3 chunk decode
  mutable ColumnScratch scratch_;               ///< TSV row shredding
};

}  // namespace eio::ipm
