#include "monitor/health.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <ostream>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "core/ks.h"
#include "fault/plan.h"
#include "obs/registry.h"
#include "posix/hooks.h"

namespace eio::monitor {
namespace {

// A buffered marker row keeps its fault::Kind in one byte.
static_assert(std::is_same_v<std::underlying_type_t<fault::Kind>, std::uint8_t>);

/// %.9g matches the binary formats' value fidelity: two streams that
/// carry the same doubles serialize to the same bytes.
void append_double(std::string& s, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  s += buf;
}

[[nodiscard]] std::string fmt(double v, const char* spec = "%.6g") {
  char buf[40];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}

[[nodiscard]] bool is_data_op(posix::OpType op) noexcept {
  return op == posix::OpType::kRead || op == posix::OpType::kWrite;
}

/// Hysteresis: consecutive firing evaluations before an incident
/// opens, and consecutive quiet ones before it clears.
constexpr int kOpenAfter = 1;
constexpr int kClearAfter = 2;

}  // namespace

const char* incident_name(IncidentKind kind) noexcept {
  switch (kind) {
    case IncidentKind::kDegradedOst: return "degraded-ost";
    case IncidentKind::kStragglerRank: return "straggler-rank";
    case IncidentKind::kDistributionDrift: return "dist-drift";
    case IncidentKind::kInjectedOstDegraded: return "injected-ost-degraded";
    case IncidentKind::kInjectedStall: return "injected-stall";
    case IncidentKind::kInjectedRetry: return "injected-retry";
    case IncidentKind::kInjectedStraggler: return "injected-straggler-stall";
  }
  return "?";
}

HealthKernel::HealthKernel(HealthOptions options, std::size_t chunk)
    : options_(std::move(options)), rooted_(chunk == 0) {
  EIO_CHECK_MSG(options_.window >= 1, "health monitor: window must be >= 1");
  EIO_CHECK_MSG(options_.stride >= 1, "health monitor: stride must be >= 1");
}

void HealthKernel::add_batch(const ipm::ColumnBatch& b) {
  if (!options_.enabled) return;
  // The admission filter reads only op and bytes, so rejected rows
  // (the common case on mixed traces) cost two column reads, and
  // admitted rows pass on only the columns the detectors read.
  const Bytes admit_bytes = options_.stripe_size / 4;
  auto interesting = [&b, admit_bytes](std::size_t i) {
    const auto op = static_cast<posix::OpType>(b.op[i]);
    return op == posix::OpType::kFault ||
           (is_data_op(op) && b.bytes[i] >= admit_bytes);
  };
  if (!rooted_) {
    // Size the replay buffer for the batch's admitted rows once (for a
    // partial's first batch, exactly) instead of regrowing it.
    std::size_t rows = buffered_.size();
    for (std::size_t i = 0; i < b.size(); ++i) rows += interesting(i) ? 1 : 0;
    if (rows > buffered_.capacity()) {
      buffered_.reserve(std::max(rows, 2 * buffered_.capacity()));
    }
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    const std::uint64_t idx = consumed_++;
    if (!interesting(i)) continue;
    admit(b.start[i], b.duration[i], static_cast<posix::OpType>(b.op[i]),
          b.rank[i], b.file[i], b.offset[i], b.phase[i], idx);
  }
}

void HealthKernel::admit(double start, double duration, posix::OpType op,
                         RankId rank, FileId file, Bytes offset,
                         std::int32_t phase, std::uint64_t idx) {
  const bool is_marker = op == posix::OpType::kFault;
  // A marker's offset is its fault::Kind, whose underlying type is
  // one byte, so the narrowing keeps the value on_marker() decodes.
  const auto kind = static_cast<std::uint8_t>(offset);
  if (rooted_) {
    if (is_marker) {
      on_marker(kind, file, rank, start, duration, idx);
    } else {
      observe(start, duration, op, rank, phase, class_of(file), idx);
    }
    return;
  }
  const std::uint64_t gap = idx - buffered_end_;
  EIO_CHECK_MSG(gap <= std::numeric_limits<std::uint32_t>::max(),
                "health monitor: more than 2^32 unadmitted rows in a row");
  buffered_.push_back({start, duration, is_marker ? file : class_of(file),
                       rank, static_cast<std::uint32_t>(gap), phase, op,
                       kind});
  buffered_end_ = idx + 1;
}

void HealthKernel::merge(HealthKernel&& rhs) {
  if (!options_.enabled) return;
  const std::uint64_t base = consumed_;
  if (rooted_) {
    std::uint64_t next = base;
    for (const Pending& p : rhs.buffered_) {
      const std::uint64_t idx = next + p.gap;
      if (p.op == posix::OpType::kFault) {
        on_marker(p.marker, p.subject, p.rank, p.start, p.duration, idx);
      } else {
        observe(p.start, p.duration, p.op, p.rank, p.phase,
                static_cast<std::uint32_t>(p.subject), idx);
      }
      next = idx + 1;
    }
  } else if (!rhs.buffered_.empty()) {
    // Appending: the first rhs row's gap also spans our unbuffered tail.
    const std::uint64_t gap = base - buffered_end_ + rhs.buffered_.front().gap;
    EIO_CHECK_MSG(gap <= std::numeric_limits<std::uint32_t>::max(),
                  "health monitor: more than 2^32 unadmitted rows in a row");
    const std::size_t first = buffered_.size();
    buffered_.insert(buffered_.end(), rhs.buffered_.begin(),
                     rhs.buffered_.end());
    buffered_[first].gap = static_cast<std::uint32_t>(gap);
    buffered_end_ = base + rhs.buffered_end_;
  }
  consumed_ = base + rhs.consumed_;
}

void HealthKernel::observe(double start, double duration, posix::OpType op,
                           RankId rank, std::int32_t phase, std::uint32_t cls,
                           std::uint64_t idx) {
  last_time_ = start;
  const double end_time = start + duration;

  // Phase bookkeeping first: an admitted event with a later phase
  // proves every earlier phase is barrier-complete, so close them.
  // The close + map lookup only run on a phase transition; within a
  // phase the cached pointer is current (transitions are the only
  // place aggs are created, so no lower phase can appear in between).
  if (cur_agg_ == nullptr || phase != cur_phase_) {
    close_phases_below(phase, idx, start);
    cur_agg_ = &phases_[phase];
    cur_phase_ = phase;
  }
  cur_agg_->add(start, end_time, rank);
  ++phase_events_;

  // Degraded-OST sliding window.
  if (options_.ost_count != 0) {
    if (ring_class_.size() < options_.window) {
      ring_class_.push_back(cls);
      ring_duration_.push_back(duration);
    } else {
      ring_class_[ring_next_] = cls;
      ring_duration_[ring_next_] = duration;
      if (++ring_next_ == options_.window) ring_next_ = 0;
    }
  }

  // Drift: per-op warm-up baseline, then a sliding current window.
  if (options_.drift_d > 0.0) {
    DriftState& d = drift_[static_cast<std::uint8_t>(op)];
    if (!d.frozen) {
      d.baseline.push_back(duration);
      if (d.baseline.size() >= options_.drift_window) d.frozen = true;
    } else {
      d.recent.push_back(duration);
      if (d.recent.size() > options_.drift_window) d.recent.pop_front();
      ++d.since_freeze;
    }
  }

  ++admitted_;
  if (++since_eval_ >= options_.stride) {
    since_eval_ = 0;
    evaluate_windows(idx, start);
  }
}

void HealthKernel::on_marker(std::uint8_t kind_code, std::uint64_t component,
                             RankId rank, double time, double detail,
                             std::uint64_t idx) {
  last_time_ = time;
  const auto kind = static_cast<fault::Kind>(kind_code);
  switch (kind) {
    case fault::Kind::kOstDegraded: {
      Track& t = tracks_[{static_cast<std::uint8_t>(
                              IncidentKind::kInjectedOstDegraded),
                          component}];
      if (t.open >= 0) return;  // window already open for this OST
      Incident& inc = open_incident(IncidentKind::kInjectedOstDegraded,
                                    component, t, idx, time);
      const double factor = detail;
      inc.severity = std::clamp(1.0 - factor, 0.0, 1.0);
      inc.statistic = factor;
      inc.threshold = 1.0;
      inc.evidence = "OST " + std::to_string(component) +
                     " bandwidth degraded to " + fmt(factor) + "x (injected)";
      ++counts_.injected;
      break;
    }
    case fault::Kind::kOstRestored: {
      auto it = tracks_.find({static_cast<std::uint8_t>(
                                  IncidentKind::kInjectedOstDegraded),
                              component});
      if (it != tracks_.end() && it->second.open >= 0) {
        clear_incident(it->second, idx, time);
      }
      break;
    }
    case fault::Kind::kStall:
    case fault::Kind::kRetry:
    case fault::Kind::kStragglerStall: {
      const IncidentKind ik = kind == fault::Kind::kStall
                                  ? IncidentKind::kInjectedStall
                              : kind == fault::Kind::kRetry
                                  ? IncidentKind::kInjectedRetry
                                  : IncidentKind::kInjectedStraggler;
      const std::uint64_t subject = rank;
      Track& t = tracks_[{static_cast<std::uint8_t>(ik), subject}];
      ++t.count;
      t.seconds += detail;
      if (t.open < 0) {
        open_incident(ik, subject, t, idx, time);
        ++counts_.injected;
      }
      Incident& inc = incidents_[static_cast<std::size_t>(t.open)];
      inc.statistic = static_cast<double>(t.count);
      inc.threshold = 1.0;
      inc.severity = std::min(1.0, 0.05 * static_cast<double>(t.count));
      const char* what = ik == IncidentKind::kInjectedStall ? "stall(s)"
                         : ik == IncidentKind::kInjectedRetry
                             ? "retried op(s)"
                             : "straggler stall(s)";
      inc.evidence = "rank " + std::to_string(subject) + ": " +
                     std::to_string(t.count) + " injected " + what + ", " +
                     fmt(t.seconds) + "s total delay";
      break;
    }
  }
}

void HealthKernel::close_phases_below(std::int32_t phase, std::uint64_t idx,
                                      double time) {
  while (!phases_.empty() && phases_.begin()->first < phase) {
    if (straggler_.add_phase(phases_.begin()->second)) {
      ++counts_.phases_evaluated;
      evaluate_straggler(idx, time);
    }
    phases_.erase(phases_.begin());
  }
}

void HealthKernel::evaluate_straggler(std::uint64_t idx, double time) {
  // The post-hoc rule over the phases closed so far: at end of stream
  // the tally holds every phase, so online and post-hoc findings agree
  // on the rank by construction.
  std::optional<std::uint64_t> firing;
  double severity = 0.0;
  std::string evidence;
  if (const auto v = straggler_.verdict(phase_events_)) {
    firing = v->rank;
    severity = v->severity;
    evidence = "rank " + std::to_string(v->rank) + ": slowest in " +
               std::to_string(v->votes) + " of " + std::to_string(v->firing) +
               " stretched phases (worst gap " + fmt(v->worst_gap) +
               "x the second-slowest)";
  }
  score(IncidentKind::kStragglerRank, firing, straggler_.worst_gap(),
        analysis::rules::kStragglerGap, severity, evidence, idx, time);
}

void HealthKernel::evaluate_windows(std::uint64_t idx, double time) {
  ++counts_.windows_evaluated;
  OBS_COUNTER_ADD("monitor.windows_evaluated", 1);
  evaluate_degraded(idx, time);
  evaluate_drift(idx, time);
}

void HealthKernel::evaluate_degraded(std::uint64_t idx, double time) {
  if (options_.ost_count == 0) return;
  std::optional<std::uint64_t> firing;
  double statistic = 0.0;
  double severity = 0.0;
  std::string evidence;
  const std::size_t rows = ring_class_.size();
  if (rows >= analysis::rules::kMinEvents) {
    // The diagnose rule over the sliding window. One counting sort
    // buckets the ring by class into reused scratch (each class in
    // ring order), and the rule selects medians in place.
    const std::uint32_t osts = options_.ost_count;
    const std::uint32_t* cls = ring_class_.data();
    const double* dur = ring_duration_.data();
    auto bucket = [osts](std::uint32_t c) -> std::size_t {
      return std::min(c, osts);  // kNoClass -> the last bucket
    };
    class_start_.assign(std::size_t{osts} + 2, 0);
    std::size_t* start = class_start_.data();
    for (std::size_t i = 0; i < rows; ++i) ++start[bucket(cls[i]) + 1];
    for (std::size_t b = 0; b <= osts; ++b) start[b + 1] += start[b];
    by_class_.resize(rows);
    class_fill_.assign(class_start_.begin(), class_start_.end() - 1);
    std::size_t* fill = class_fill_.data();
    for (std::size_t i = 0; i < rows; ++i) by_class_[fill[bucket(cls[i])]++] = dur[i];
    class_spans_.clear();
    for (std::uint32_t ost = 0; ost < osts; ++ost) {
      class_spans_.emplace_back(by_class_.data() + start[ost],
                                start[ost + 1] - start[ost]);
    }
    if (const auto v = analysis::rules::degraded_ost(rows, class_spans_,
                                                     degraded_scratch_)) {
      firing = v->ost;
      statistic = v->ratio;
      severity = v->severity;
      evidence = "OST " + std::to_string(v->ost) + ": class median runs " +
                 fmt(v->ratio) + "x the fleet median over the last " +
                 std::to_string(rows) + " bulk transfers (" +
                 std::to_string(v->events) + " events; runner-up at " +
                 fmt(v->runner_up) + "x)";
    }
  }
  score(IncidentKind::kDegradedOst, firing, statistic,
        analysis::rules::kDegradedRatio, severity, evidence, idx, time);
}

void HealthKernel::evaluate_drift(std::uint64_t idx, double time) {
  if (options_.drift_d <= 0.0) return;
  // Each op with a frozen baseline and a full, baseline-disjoint
  // current window gets its own KS test — one score() per op so the
  // hysteresis tracks stay per-subject.
  for (auto& [op, d] : drift_) {
    if (!d.frozen || d.recent.size() < options_.drift_window) continue;
    std::vector<double> current(d.recent.begin(), d.recent.end());
    stats::KsResult ks = stats::ks_two_sample(d.baseline, current);
    std::optional<std::uint64_t> firing;
    double severity = 0.0;
    std::string evidence;
    if (ks.statistic >= options_.drift_d) {
      firing = op;
      severity = std::min(1.0, ks.statistic);
      evidence = std::string(posix::op_name(static_cast<posix::OpType>(op))) +
                 " durations: KS D = " + fmt(ks.statistic) +
                 " vs the warm-up baseline (" +
                 std::to_string(options_.drift_window) + " samples each)";
    }
    score(IncidentKind::kDistributionDrift, firing, ks.statistic,
          options_.drift_d, severity, evidence, idx, time);
  }
}

void HealthKernel::score(IncidentKind kind,
                         std::optional<std::uint64_t> firing, double statistic,
                         double threshold, double severity,
                         const std::string& evidence, std::uint64_t idx,
                         double time) {
  const auto code = static_cast<std::uint8_t>(kind);
  if (firing) {
    Track& t = tracks_[{code, *firing}];
    ++t.hot;
    t.cold = 0;
    if (t.open < 0 && t.hot >= kOpenAfter) {
      Incident& inc = open_incident(kind, *firing, t, idx, time);
      inc.statistic = statistic;
      inc.threshold = threshold;
      inc.severity = severity;
      inc.evidence = evidence;
      switch (kind) {
        case IncidentKind::kDegradedOst: ++counts_.degraded_ost; break;
        case IncidentKind::kStragglerRank: ++counts_.straggler_rank; break;
        case IncidentKind::kDistributionDrift: ++counts_.drift; break;
        default: break;
      }
    } else if (t.open >= 0) {
      // Keep the open incident's evidence current: the record shows
      // the strongest statistic seen while it was open.
      Incident& inc = incidents_[static_cast<std::size_t>(t.open)];
      if (statistic > inc.statistic) {
        inc.statistic = statistic;
        inc.severity = severity;
        inc.evidence = evidence;
      }
    }
  }
  // Every other track of this kind saw a quiet evaluation.
  for (auto& [key, t] : tracks_) {
    if (key.first != code) continue;
    if (firing && key.second == *firing) continue;
    t.hot = 0;
    if (t.open >= 0 && ++t.cold >= kClearAfter) {
      clear_incident(t, idx, time);
    }
  }
}

Incident& HealthKernel::open_incident(IncidentKind kind, std::uint64_t subject,
                                      Track& track, std::uint64_t idx,
                                      double time) {
  Incident inc;
  inc.kind = kind;
  inc.subject = subject;
  inc.onset_event = idx;
  inc.onset_time = time;
  track.open = static_cast<std::ptrdiff_t>(incidents_.size());
  incidents_.push_back(std::move(inc));
  ++counts_.incidents_opened;
  OBS_COUNTER_ADD("monitor.incidents_opened", 1);
  obs::record_instant(std::string("incident open: ") + incident_name(kind) +
                      " #" + std::to_string(subject));
  return incidents_.back();
}

void HealthKernel::clear_incident(Track& track, std::uint64_t idx,
                                  double time) {
  Incident& inc = incidents_[static_cast<std::size_t>(track.open)];
  inc.clear_event = static_cast<std::int64_t>(idx);
  inc.clear_time = time;
  track.open = -1;
  track.hot = 0;
  track.cold = 0;
  ++counts_.incidents_cleared;
  OBS_COUNTER_ADD("monitor.incidents_cleared", 1);
  obs::record_instant(std::string("incident clear: ") +
                      incident_name(inc.kind) + " #" +
                      std::to_string(inc.subject));
}

void HealthKernel::finish() {
  if (!options_.enabled || !rooted_ || finished_) return;
  finished_ = true;
  const std::uint64_t idx = consumed_;
  // Barriers never close the final phase — the end of stream does.
  close_phases_below(std::numeric_limits<std::int32_t>::max(), idx, last_time_);
  cur_agg_ = nullptr;  // everything it could point at was just erased
  if (since_eval_ > 0) {
    since_eval_ = 0;
    evaluate_windows(idx, last_time_);
  }
}

void write_incidents_jsonl(std::ostream& out,
                           const std::vector<Incident>& incidents,
                           std::uint64_t run) {
  std::string line;
  for (const Incident& inc : incidents) {
    line.clear();
    line += "{\"run\":";
    line += std::to_string(run);
    line += ",\"kind\":\"";
    line += incident_name(inc.kind);
    line += "\",\"subject\":";
    line += std::to_string(inc.subject);
    line += ",\"onset_event\":";
    line += std::to_string(inc.onset_event);
    line += ",\"clear_event\":";
    line += std::to_string(inc.clear_event);
    line += ",\"onset_time\":";
    append_double(line, inc.onset_time);
    line += ",\"clear_time\":";
    append_double(line, inc.clear_time);
    line += ",\"severity\":";
    append_double(line, inc.severity);
    line += ",\"statistic\":";
    append_double(line, inc.statistic);
    line += ",\"threshold\":";
    append_double(line, inc.threshold);
    line += ",\"evidence\":\"";
    for (char c : inc.evidence) {
      // Evidence strings are ASCII by construction; escape the two
      // JSON-significant characters anyway.
      if (c == '"' || c == '\\') line += '\\';
      line += c;
    }
    line += "\"}\n";
    out << line;
  }
}

void print_incident_table(std::ostream& out,
                          const std::vector<Incident>& incidents) {
  if (incidents.empty()) {
    out << "no incidents\n";
    return;
  }
  out << "  kind                      subj   onset-evt   onset(s)   "
         "clear-evt   sev    evidence\n";
  for (const Incident& inc : incidents) {
    char line[128];
    std::snprintf(line, sizeof line, "  %-25s %5llu %11llu %10.4f %11lld %5.2f",
                  incident_name(inc.kind),
                  static_cast<unsigned long long>(inc.subject),
                  static_cast<unsigned long long>(inc.onset_event),
                  inc.onset_time, static_cast<long long>(inc.clear_event),
                  inc.severity);
    out << line << "   " << inc.evidence << "\n";
  }
}

void print_counts(std::ostream& out, const Counts& counts) {
  out << "monitor: " << counts.incidents_opened << " incident(s) opened, "
      << counts.incidents_cleared << " cleared, " << counts.open_at_finish()
      << " open at end (" << counts.windows_evaluated
      << " window evaluations, " << counts.phases_evaluated
      << " phase closures)\n";
}

}  // namespace eio::monitor
