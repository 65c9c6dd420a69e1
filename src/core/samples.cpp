#include "core/samples.h"

#include "common/check.h"
#include "common/units.h"

namespace eio::analysis {

ipm::ColumnMask EventFilter::required_columns() const noexcept {
  ipm::ColumnMask mask = ipm::kColOp;
  if (phase) mask |= ipm::kColPhase;
  if (rank) mask |= ipm::kColRank;
  if (min_bytes > 0 || max_bytes) mask |= ipm::kColBytes;
  // The window predicate compares e.end() = start + duration on the
  // left edge, so t_lo pulls in both time columns.
  if (t_lo) mask |= ipm::kColStart | ipm::kColDuration;
  if (t_hi) mask |= ipm::kColStart;
  return mask;
}

ipm::ChunkHint hint_for(const EventFilter& filter) {
  ipm::ChunkHint hint;
  hint.op = filter.op;
  hint.phase = filter.phase;
  hint.rank = filter.rank;
  hint.t_lo = filter.t_lo;
  hint.t_hi = filter.t_hi;
  if (!filter.op) {
    // No single-op pin, but the filter still rejects everything except
    // reads and writes — chunks containing neither can be skipped.
    hint.op_mask = (1u << static_cast<unsigned>(posix::OpType::kRead)) |
                   (1u << static_cast<unsigned>(posix::OpType::kWrite));
  }
  return hint;
}

std::vector<double> durations(const ipm::TraceSource& source,
                              const EventFilter& filter) {
  std::vector<double> out;
  filter.for_each_match(source, ipm::kColDuration,
                        [&](const ipm::ColumnBatch& b, std::size_t i) {
                          out.push_back(b.duration[i]);
                        });
  return out;
}

std::vector<double> seconds_per_mib(const ipm::TraceSource& source,
                                    const EventFilter& filter) {
  std::vector<double> out;
  filter.for_each_match(source, ipm::kColDuration | ipm::kColBytes,
                        [&](const ipm::ColumnBatch& b, std::size_t i) {
                          if (b.bytes[i] == 0) return;
                          out.push_back(b.duration[i] / to_mib(b.bytes[i]));
                        });
  return out;
}

std::vector<double> rates_mib(const ipm::TraceSource& source,
                              const EventFilter& filter) {
  std::vector<double> out;
  filter.for_each_match(source, ipm::kColDuration | ipm::kColBytes,
                        [&](const ipm::ColumnBatch& b, std::size_t i) {
                          if (b.bytes[i] == 0 || b.duration[i] <= 0.0) return;
                          out.push_back(to_mib(b.bytes[i]) / b.duration[i]);
                        });
  return out;
}

std::map<RankId, std::vector<double>> durations_by_rank(
    const ipm::TraceSource& source, const EventFilter& filter) {
  std::map<RankId, std::vector<double>> out;
  filter.for_each_match(source, ipm::kColDuration | ipm::kColRank,
                        [&](const ipm::ColumnBatch& b, std::size_t i) {
                          out[b.rank[i]].push_back(b.duration[i]);
                        });
  return out;
}

void PhaseSummarySink::flush_run(std::int32_t phase) {
  auto it = by_phase_.try_emplace(phase, options_).first;
  it->second.add_batch(scratch_);
  scratch_.clear();
}

void PhaseSummarySink::add_batch(const ipm::ColumnBatch& batch) {
  // Traces are phase-runs by construction (each rank's events arrive
  // phase by phase), so buffering per run turns the per-event map
  // lookup + interleaved add into one lookup + one dense fold per run.
  scratch_.clear();
  std::int32_t run_phase = 0;
  filter_.for_each_match(batch, [&](std::size_t i) {
    std::int32_t phase = batch.phase[i];
    if (!scratch_.empty() && phase != run_phase) flush_run(run_phase);
    run_phase = phase;
    scratch_.push_back(batch.duration[i]);
  });
  if (!scratch_.empty()) flush_run(run_phase);
}

void PhaseSummarySink::merge(const PhaseSummarySink& other) {
  for (const auto& [phase, summary] : other.by_phase_) {
    auto it = by_phase_.try_emplace(phase, options_).first;
    it->second.merge(summary);
  }
}

std::vector<double> per_rank_ordered(const ipm::TraceSource& source,
                                     const EventFilter& filter, std::size_t k) {
  auto by_rank = durations_by_rank(source, filter);
  std::vector<double> out;
  out.reserve(by_rank.size() * k);
  for (const auto& [rank, ds] : by_rank) {
    EIO_CHECK_MSG(ds.size() == k, "rank " << rank << " has " << ds.size()
                                          << " events, expected " << k);
    out.insert(out.end(), ds.begin(), ds.end());
  }
  return out;
}

}  // namespace eio::analysis
