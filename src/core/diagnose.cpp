#include "core/diagnose.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/distribution.h"
#include "core/kernel.h"
#include "core/modes.h"
#include "core/parallel_analysis.h"
#include "core/streaming.h"
#include "ipm/trace_source.h"

namespace eio::analysis {

namespace {

using posix::OpType;

/// Relative error within which a mode counts as a harmonic of T.
constexpr double kHarmonicTolerance = 0.25;
/// p99 / median of bulk reads at or past this is a heavy tail.
constexpr double kTailRatio = 8.0;
/// One rank's small-transfer time share of the run that flags
/// metadata serialization.
constexpr double kMetadataShare = 0.25;

/// Append a later partial's samples after this one's.
void append(std::vector<double>& into, std::vector<double>& later) {
  if (into.empty()) {
    into = std::move(later);
  } else {
    into.insert(into.end(), later.begin(), later.end());
  }
}

template <typename Key>
void append_all(std::map<Key, std::vector<double>>& into,
                std::map<Key, std::vector<double>>& later) {
  for (auto& [key, samples] : later) append(into[key], samples);
}

/// The map entry for `key`, looked up only when the key changes:
/// traces arrive in runs of equal phase or rank.
template <typename Key, typename Value>
Value& cached(std::map<Key, Value>& map, Key key, Key& last, Value*& slot) {
  if (slot == nullptr || key != last) {
    slot = &map[key];
    last = key;
  }
  return *slot;
}

}  // namespace

static_assert(Kernel<DiagnoseKernel>);

DiagnoseKernel::DiagnoseKernel(const DiagnoserOptions& options)
    : opt_(options), by_class_(options.ost_count) {}

ipm::ColumnMask DiagnoseKernel::required_columns() const noexcept {
  ipm::ColumnMask mask = ipm::kColStart | ipm::kColDuration | ipm::kColOp |
                         ipm::kColRank | ipm::kColBytes | ipm::kColPhase;
  if (opt_.ost_count != 0) mask |= ipm::kColFile;
  if (opt_.fair_share_rate > 0.0) mask |= ipm::kColOffset;
  return mask;
}

void DiagnoseKernel::add_batch(const ipm::ColumnBatch& b) {
  const Bytes stripe = opt_.stripe_size;
  const Bytes small_max = stripe / 16;
  const Bytes bulk_min = stripe / 4;
  const Bytes big_min = 64 * stripe;
  const double fair = opt_.fair_share_rate;
  const std::uint32_t osts = opt_.ost_count;
  std::int32_t read_phase = 0, end_phase = 0;
  RankId small_rank = 0, big_rank = 0;
  std::vector<double>* reads = nullptr;
  rules::PhaseEnds* ends = nullptr;
  std::vector<double>* small = nullptr;
  std::vector<double>* big = nullptr;
  FileId last_file = kInvalidFile;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double start = b.start[i];
    const double duration = b.duration[i];
    const double end = start + duration;
    if (span_ < end) span_ = end;
    const auto op = static_cast<OpType>(b.op[i]);
    if (op != OpType::kRead && op != OpType::kWrite) continue;
    const Bytes bytes = b.bytes[i];
    const RankId rank = b.rank[i];
    if (bytes >= 1 && bytes <= small_max) {
      cached(small_by_rank_, rank, small_rank, small).push_back(duration);
    }
    // Every remaining detector reads bulk transfers only.
    if (bytes < bulk_min) continue;
    ++bulk_;
    cached(phases_, b.phase[i], end_phase, ends).add(start, end, rank);
    if (osts != 0) {
      const FileId file = b.file[i];
      if (file != kInvalidFile) {
        by_class_[rules::ost_class(file, osts)].push_back(duration);
        if (file != last_file) files_.insert(file);
        last_file = file;
      }
    }
    if (op == OpType::kWrite) {
      if (fair > 0.0) {
        ++bulk_writes_;
        const double rate =
            duration > 0.0 ? static_cast<double>(bytes) / duration : 0.0;
        if (rate < 0.6 * fair) ++below_share_;
        const Bytes offset = b.offset[i];
        if (offset % stripe != 0 || (offset + bytes) % stripe != 0) {
          ++unaligned_;
        }
      }
      if (bytes >= stripe) writes_.push_back(duration);
      if (bytes >= big_min) {
        cached(big_by_rank_, rank, big_rank, big).push_back(duration);
      }
    } else if (bytes >= stripe) {
      cached(reads_, b.phase[i], read_phase, reads).push_back(duration);
    }
  }
}

void DiagnoseKernel::merge(DiagnoseKernel&& later) {
  span_ = std::max(span_, later.span_);
  append(writes_, later.writes_);
  append_all(reads_, later.reads_);
  append_all(small_by_rank_, later.small_by_rank_);
  append_all(big_by_rank_, later.big_by_rank_);
  bulk_ += later.bulk_;
  bulk_writes_ += later.bulk_writes_;
  below_share_ += later.below_share_;
  unaligned_ += later.unaligned_;
  for (std::size_t c = 0; c < by_class_.size(); ++c) {
    append(by_class_[c], later.by_class_[c]);
  }
  files_.insert(later.files_.begin(), later.files_.end());
  for (const auto& [phase, ends] : later.phases_) phases_[phase].merge(ends);
}

void DiagnoseKernel::detect_harmonics(std::vector<Finding>& findings) const {
  // Harmonic modes show up in the durations of equal-size writes.
  if (writes_.size() < rules::kMinEvents) return;
  auto modes = stats::find_modes(writes_, {.log_axis = false});
  if (modes.size() < 2) return;
  auto matched = stats::harmonic_signature(modes, kHarmonicTolerance);
  bool has_half = std::find(matched.begin(), matched.end(), 2) != matched.end();
  bool has_quarter = std::find(matched.begin(), matched.end(), 4) != matched.end();
  if (!has_half && !has_quarter) return;
  std::ostringstream os;
  os << "write-time modes at harmonic positions (";
  for (std::size_t i = 0; i < matched.size(); ++i) {
    os << (i ? ", " : "") << "T/" << matched[i];
  }
  os << " of the slow mode): tasks on a node are taking turns at the "
        "client's I/O streams — intra-node serialization, not random noise";
  findings.push_back({FindingCode::kHarmonicModes,
                      has_half && has_quarter ? 0.9 : 0.6, os.str(),
                      static_cast<double>(modes.size())});
}

void DiagnoseKernel::detect_read_phases(std::vector<Finding>& findings) {
  // Read deterioration: phases with enough reads to trust a median, in
  // phase order.
  std::vector<std::pair<std::int32_t, double>> medians;
  std::size_t reads = 0;
  for (auto& [phase, ds] : reads_) {
    reads += ds.size();
    if (ds.size() < 8) continue;
    medians.emplace_back(phase, stats::select_quantile_inplace(ds, 0.5));
  }
  if (medians.size() >= 3) {
    // Find the longest run of consecutively-worsening phases and the
    // median growth across it. (The run matters, not the global first
    // vs last phase: a pathology confined to phases 4-8 must not be
    // masked by clean later phases.)
    std::size_t run = 1, best_run = 1;
    std::size_t run_start = 0;
    double worst_ratio = 1.0;
    for (std::size_t i = 1; i < medians.size(); ++i) {
      if (medians[i].second > medians[i - 1].second * 1.1) {
        if (run == 1) run_start = i - 1;
        ++run;
        if (run >= best_run && medians[run_start].second > 0.0) {
          best_run = run;
          worst_ratio = std::max(worst_ratio,
                                 medians[i].second / medians[run_start].second);
        }
      } else {
        run = 1;
      }
    }
    if (best_run >= 3 && worst_ratio >= 2.0) {
      std::ostringstream os;
      os << "read performance deteriorates monotonically across " << best_run
         << " consecutive phases (last/first median = " << worst_ratio
         << "x): a stateful middleware mechanism (e.g. strided read-ahead "
            "detection) is compounding — inspect file-system client "
            "behaviour";
      findings.push_back(
          {FindingCode::kReadDeterioration,
           std::min(1.0, 0.4 + 0.1 * static_cast<double>(best_run) +
                             0.05 * std::log2(worst_ratio)),
           os.str(), worst_ratio});
    }
  }

  // Heavy read tail over every phase's reads.
  if (reads < rules::kMinEvents) return;
  std::vector<double> all;
  all.reserve(reads);
  for (const auto& [phase, ds] : reads_) {
    all.insert(all.end(), ds.begin(), ds.end());
  }
  const double median = stats::select_quantile_inplace(all, 0.5);
  const double p99 = stats::select_quantile_inplace(all, 0.99);
  if (median <= 0.0 || p99 / median < kTailRatio) return;
  std::ostringstream os;
  os << "read-time distribution has a heavy right tail (p99/median = "
     << p99 / median << "x, p99 = " << p99
     << " s): a few catastrophic reads dominate synchronous phases";
  findings.push_back({FindingCode::kHeavyReadTail,
                      std::min(1.0, 0.3 + 0.1 * std::log2(p99 / median)),
                      os.str(), p99 / median});
}

void DiagnoseKernel::detect_metadata_serialization(
    std::vector<Finding>& findings) const {
  // Each rank's small-transfer time, summed in trace order.
  std::size_t small = 0;
  RankId hottest = 0;
  double hottest_time = 0.0;
  for (const auto& [rank, ds] : small_by_rank_) {
    double time = 0.0;
    for (double d : ds) time += d;
    if (small == 0 || hottest_time < time) {
      hottest = rank;
      hottest_time = time;
    }
    small += ds.size();
  }
  if (small < rules::kMinEvents || span_ <= 0.0) return;
  const double share = hottest_time / span_;
  if (share < kMetadataShare) return;
  std::ostringstream os;
  os << "rank " << hottest << " spends " << static_cast<int>(share * 100)
     << "% of the run in serialized small (<"
     << opt_.stripe_size / 16 / 1024
     << " KiB) transfers: aggregate metadata into large deferred writes";
  findings.push_back({FindingCode::kMetadataSerialization,
                      std::min(1.0, share), os.str(), share});
}

void DiagnoseKernel::detect_sub_fair_share(std::vector<Finding>& findings) const {
  if (opt_.fair_share_rate <= 0.0) return;
  if (bulk_writes_ < rules::kMinEvents) return;
  const auto n = static_cast<double>(bulk_writes_);
  double below_frac = static_cast<double>(below_share_) / n;
  double unaligned_frac = static_cast<double>(unaligned_) / n;
  if (below_frac < 0.4 || unaligned_frac < 0.5) return;
  std::ostringstream os;
  os << static_cast<int>(below_frac * 100)
     << "% of bulk writes run below 60% of the per-task fair share while "
     << static_cast<int>(unaligned_frac * 100)
     << "% of them are not stripe-aligned: pad and align transfers to "
     << opt_.stripe_size / (1024 * 1024) << " MiB boundaries";
  findings.push_back({FindingCode::kSubFairShare,
                      std::min(1.0, below_frac * unaligned_frac + 0.2),
                      os.str(), below_frac});
}

void DiagnoseKernel::detect_splitting_opportunity(
    std::vector<Finding>& findings) const {
  // One (or very few) large write per rank per phase leaves the phase
  // time pinned to the Nth order statistic of a wide distribution.
  if (big_by_rank_.size() < rules::kMinEvents) return;
  double avg_calls = 0.0;
  stats::StreamingMoments moments;  // rank-major, each rank in trace order
  for (const auto& [rank, ds] : big_by_rank_) {
    avg_calls += static_cast<double>(ds.size());
    for (double d : ds) moments.add(d);
  }
  avg_calls /= static_cast<double>(big_by_rank_.size());
  if (avg_calls > 4.0) return;  // already splitting
  const stats::Moments m = moments.moments();
  if (m.cv() < 0.25) return;  // narrow already; nothing to gain
  std::ostringstream os;
  os << "tasks issue ~" << avg_calls
     << " very large write(s) each with a wide duration spread (cv = "
     << m.cv()
     << "): splitting each transfer into k calls (or collective "
        "buffering) narrows per-task totals by the law of large numbers";
  findings.push_back({FindingCode::kSplittingOpportunity,
                      std::min(1.0, 0.3 + m.cv() / 2.0), os.str(), m.cv()});
}

void DiagnoseKernel::detect_degraded_ost(std::vector<Finding>& findings) {
  // Degraded-component signature (§IV of the paper): a much slower
  // duration mode whose events all touch files living on one OST.
  if (opt_.ost_count == 0) return;
  const std::vector<std::span<double>> classes(by_class_.begin(),
                                               by_class_.end());
  rules::DegradedScratch scratch;
  const auto v = rules::degraded_ost(bulk_, classes, scratch);
  if (!v) return;
  const auto files =
      std::count_if(files_.begin(), files_.end(), [&](FileId f) {
        return rules::ost_class(f, opt_.ost_count) == v->ost;
      });
  std::ostringstream os;
  os << "bulk transfers on files striped to OST " << v->ost << " run "
     << v->ratio << "x the fleet median (" << v->events << " events over "
     << files << " files; next-slowest OST class sits at " << v->runner_up
     << "x): one storage target is degraded — check OST " << v->ost
     << " for a failing disk or RAID rebuild";
  findings.push_back({FindingCode::kDegradedOst, v->severity, os.str(),
                      static_cast<double>(v->ost)});
}

void DiagnoseKernel::detect_straggler_rank(std::vector<Finding>& findings) const {
  rules::StragglerTally tally;
  for (const auto& [phase, ends] : phases_) (void)tally.add_phase(ends);
  const auto v = tally.verdict(bulk_);
  if (!v) return;
  std::ostringstream os;
  os << "rank " << v->rank << " finishes last in " << v->votes << " of "
     << v->firing << " stretched phases (worst gap " << v->worst_gap
     << "x the second-slowest rank): a consistently slow host, not random "
        "variation — check that node's health or reschedule the rank";
  findings.push_back({FindingCode::kStragglerRank, v->severity, os.str(),
                      static_cast<double>(v->rank)});
}

std::vector<Finding> DiagnoseKernel::finish() {
  std::vector<Finding> findings;
  detect_harmonics(findings);
  detect_read_phases(findings);
  detect_metadata_serialization(findings);
  detect_sub_fair_share(findings);
  detect_splitting_opportunity(findings);
  detect_degraded_ost(findings);
  detect_straggler_rank(findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) { return a.severity > b.severity; });
  return findings;
}

const char* finding_name(FindingCode code) noexcept {
  switch (code) {
    case FindingCode::kHarmonicModes: return "harmonic-modes";
    case FindingCode::kReadDeterioration: return "read-deterioration";
    case FindingCode::kHeavyReadTail: return "heavy-read-tail";
    case FindingCode::kMetadataSerialization: return "metadata-serialization";
    case FindingCode::kSubFairShare: return "sub-fair-share";
    case FindingCode::kSplittingOpportunity: return "splitting-opportunity";
    case FindingCode::kDegradedOst: return "degraded-ost";
    case FindingCode::kStragglerRank: return "straggler-rank";
  }
  return "?";
}

std::vector<Finding> diagnose(const ipm::TraceSource& source,
                              const DiagnoserOptions& options) {
  return run_kernels(source, 1, ipm::ChunkHint{},
                     [&](std::size_t) { return DiagnoseKernel(options); })
      .finish();
}

}  // namespace eio::analysis
