// Extraction of measurement samples from traces.
//
// Everything downstream (histograms, modes, order statistics, the
// diagnoser) consumes flat vectors of per-event measurements; this is
// where trace events are filtered and shaped into them.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "core/streaming.h"
#include "ipm/columns.h"
#include "ipm/sink.h"
#include "ipm/trace.h"
#include "ipm/trace_source.h"
#include "posix/hooks.h"

namespace eio::analysis {

/// Predicate over trace events; unset fields match everything, except
/// that an unset op keeps only the data calls (reads and writes).
struct EventFilter {
  std::optional<posix::OpType> op;          ///< the one op to keep
  std::optional<std::int32_t> phase;
  std::optional<RankId> rank;
  Bytes min_bytes = 0;                      ///< inclusive
  std::optional<Bytes> max_bytes;           ///< inclusive
  /// Wall-clock window: keep events whose [start, end] interval
  /// intersects [t_lo, t_hi]. Maps onto the chunk index's time span,
  /// so windowed scans skip whole chunks.
  std::optional<double> t_lo;
  std::optional<double> t_hi;

  /// The columns this filter reads. A columnar pass must decode at
  /// least these (plus whatever the analysis itself consumes) for
  /// matches_at() to be exact; everything else may stay un-decoded.
  [[nodiscard]] ipm::ColumnMask required_columns() const noexcept;

  /// The predicate over row i of a ColumnBatch, reading only the
  /// required_columns() spans. Inline: it runs once per event inside
  /// every scan loop, and with the common op pin the compiler folds
  /// the unset-field branches away at the call site.
  [[nodiscard]] bool matches_at(const ipm::ColumnBatch& b,
                                std::size_t i) const {
    using posix::OpType;
    const auto code = static_cast<OpType>(b.op[i]);
    if (op ? code != *op : code != OpType::kRead && code != OpType::kWrite) {
      return false;
    }
    if (phase && b.phase[i] != *phase) return false;
    if (rank && b.rank[i] != *rank) return false;
    if (min_bytes > 0 && b.bytes[i] < min_bytes) return false;
    if (max_bytes && b.bytes[i] > *max_bytes) return false;
    if (t_lo && b.start[i] + b.duration[i] < *t_lo) return false;
    if (t_hi && b.start[i] > *t_hi) return false;
    return true;
  }

  /// True when only the op pin (or its read/write default) constrains
  /// the predicate — the shape every CLI subcommand produces. matches_at
  /// then reduces to one opcode compare per row.
  [[nodiscard]] bool op_only() const noexcept {
    return !phase && !rank && min_bytes == 0 && !max_bytes && !t_lo && !t_hi;
  }

  /// Visit the index of every matching row of `b`, in row order.
  /// Dispatches once per batch instead of re-testing the unset
  /// optional fields on every row: op-only filters (the CLI shape) run
  /// a single-compare loop, everything else falls back to matches_at
  /// per row. The visited set and order are exactly those of
  /// matches_at over 0..size-1, so gathers built either way agree.
  template <typename Fn>
  void for_each_match(const ipm::ColumnBatch& b, Fn&& fn) const {
    using posix::OpType;
    const std::size_t n = b.size();
    if (op_only()) {
      if (op) {
        const auto code = static_cast<std::uint8_t>(*op);
        for (std::size_t i = 0; i < n; ++i) {
          if (b.op[i] == code) fn(i);
        }
        return;
      }
      const auto rd = static_cast<std::uint8_t>(OpType::kRead);
      const auto wr = static_cast<std::uint8_t>(OpType::kWrite);
      for (std::size_t i = 0; i < n; ++i) {
        if (b.op[i] == rd || b.op[i] == wr) fn(i);
      }
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (matches_at(b, i)) fn(i);
    }
  }

  /// One hinted pass over `source` calling fn(batch, row) for every
  /// matching row, in trace order, with `columns` decoded beside the
  /// filter's own.
  template <typename Fn>
  void for_each_match(const ipm::TraceSource& source, ipm::ColumnMask columns,
                      Fn&& fn) const;
};

// ---------------------------------------------------------------------------
// Sample extraction: one hinted columnar pass over a TraceSource — a
// trace file or an in-memory Trace alike.

/// The chunk-index pre-filter a filter implies (op/phase/rank pins
/// become hints; indexed v3 sources skip chunks that cannot match).
[[nodiscard]] ipm::ChunkHint hint_for(const EventFilter& filter);

template <typename Fn>
void EventFilter::for_each_match(const ipm::TraceSource& source,
                                 ipm::ColumnMask columns, Fn&& fn) const {
  source.for_each_columns_hinted(
      hint_for(*this), required_columns() | columns,
      [&](const ipm::ColumnBatch& b) {
        for_each_match(b, [&](std::size_t i) { fn(b, i); });
      });
}

/// Durations of matching events (materializes the samples, not the
/// events — use SummarySink when bounded memory matters).
[[nodiscard]] std::vector<double> durations(const ipm::TraceSource& source,
                                            const EventFilter& filter);

/// Per-event normalized cost in seconds per MiB (the Figure 6
/// histogram axis, which makes mixed transfer sizes comparable).
[[nodiscard]] std::vector<double> seconds_per_mib(
    const ipm::TraceSource& source, const EventFilter& filter);

/// Per-event achieved rate in MiB/s.
[[nodiscard]] std::vector<double> rates_mib(const ipm::TraceSource& source,
                                            const EventFilter& filter);

/// Durations grouped by rank, each in issue order (feeds
/// stats::sum_groups for per-task totals).
[[nodiscard]] std::map<RankId, std::vector<double>> durations_by_rank(
    const ipm::TraceSource& source, const EventFilter& filter);

/// Flatten durations_by_rank in rank order into one vector with `k`
/// entries per rank, checking each rank contributed exactly k.
[[nodiscard]] std::vector<double> per_rank_ordered(
    const ipm::TraceSource& source, const EventFilter& filter, std::size_t k);

/// EventSink folding filter-matched durations into a StreamingSummary
/// (count/extrema/moments/reservoir) — the bounded-memory analysis
/// attachment for monitors and ensemble runs.
class SummarySink final : public ipm::EventSink {
 public:
  explicit SummarySink(EventFilter filter)
      : SummarySink(std::move(filter), stats::SummaryOptions{}) {}
  SummarySink(EventFilter filter, const stats::SummaryOptions& options)
      : filter_(std::move(filter)), summary_(options) {}

  /// Fold a decoded column batch (the sink and kernel entry point).
  /// Gathers the matching durations densely, then feeds the summary
  /// one dense span per sub-kernel — the same index-order sequence
  /// into every sub-kernel whatever the batch boundaries. The batch
  /// needs required_columns() decoded.
  void add_batch(const ipm::ColumnBatch& batch) override {
    scratch_.clear();
    scratch_.reserve(batch.size());
    filter_.for_each_match(
        batch, [&](std::size_t i) { scratch_.push_back(batch.duration[i]); });
    summary_.add_batch(scratch_);
  }

  /// Columns add_batch reads: the filter's plus the duration samples.
  [[nodiscard]] ipm::ColumnMask required_columns() const noexcept {
    return filter_.required_columns() | ipm::kColDuration;
  }

  /// Fold another sink's summary into this one (see
  /// StreamingSummary::merge for exactness guarantees).
  void merge(const SummarySink& other) { summary_.merge(other.summary_); }

  [[nodiscard]] const stats::StreamingSummary& summary() const noexcept {
    return summary_;
  }

 private:
  EventFilter filter_;
  stats::StreamingSummary summary_;
  std::vector<double> scratch_;  ///< matching durations of one batch
};

/// EventSink grouping filter-matched durations by phase label (the
/// per-phase CDFs of Figure 5a).
class PhaseSummarySink final : public ipm::EventSink {
 public:
  explicit PhaseSummarySink(EventFilter filter)
      : PhaseSummarySink(std::move(filter), stats::SummaryOptions{}) {}
  PhaseSummarySink(EventFilter filter, const stats::SummaryOptions& options)
      : filter_(std::move(filter)), options_(options) {}

  /// Fold a decoded column batch (the sink and kernel entry point).
  /// Matching durations are buffered per run of equal phase labels
  /// and flushed as dense spans, so each phase's summary folds the
  /// same duration sequence whatever the batch boundaries.
  void add_batch(const ipm::ColumnBatch& batch) override;

  /// Columns add_batch reads: the filter's, the phase labels it groups
  /// by, and the duration samples.
  [[nodiscard]] ipm::ColumnMask required_columns() const noexcept {
    return filter_.required_columns() | ipm::kColPhase | ipm::kColDuration;
  }

  /// Fold another sink's per-phase summaries into this one. A phase
  /// absent here starts from an empty summary and merges the other
  /// side's into it, so every phase's reservoir continues one sampling
  /// stream however the phases were split across partials.
  void merge(const PhaseSummarySink& other);

  [[nodiscard]] const std::map<std::int32_t, stats::StreamingSummary>&
  by_phase() const noexcept {
    return by_phase_;
  }

 private:
  /// Feed the buffered run of durations to `phase`'s summary.
  void flush_run(std::int32_t phase);

  EventFilter filter_;
  stats::SummaryOptions options_;
  std::map<std::int32_t, stats::StreamingSummary> by_phase_;
  std::vector<double> scratch_;  ///< one run of same-phase durations
};

}  // namespace eio::analysis
