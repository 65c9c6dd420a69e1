#include "monitor/health.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <ostream>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "core/ks.h"
#include "fault/plan.h"
#include "obs/registry.h"
#include "posix/hooks.h"

namespace eio::monitor {
namespace {

// A segment marker keeps its fault::Kind in one byte.
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
  if (rooted_) {
    // The same fold as a chunk partial, applied at once.
    Segment batch;
    fold(b, batch, 0);
    apply(batch, consumed_);
  } else {
    fold(b, segment_, consumed_);
  }
  consumed_ += b.size();
}

void HealthKernel::Segment::append(const Segment& later, std::uint64_t offset) {
  const std::size_t rows = duration.size();
  const std::size_t ends_before = ends.size();
  cls.insert(cls.end(), later.cls.begin(), later.cls.end());
  duration.insert(duration.end(), later.duration.begin(), later.duration.end());
  start.insert(start.end(), later.start.begin(), later.start.end());
  op.insert(op.end(), later.op.begin(), later.op.end());
  pos.reserve(pos.size() + later.pos.size());
  for (std::uint64_t p : later.pos) pos.push_back(offset + p);
  ends.insert(ends.end(), later.ends.begin(), later.ends.end());
  for (Run run : later.runs) {
    run.first += rows;
    run.ends += ends_before;
    runs.push_back(run);
  }
  for (Marker m : later.markers) {
    m.before += rows;
    m.pos += offset;
    markers.push_back(m);
  }
}

void HealthKernel::fold(const ipm::ColumnBatch& b, Segment& seg,
                        std::uint64_t base) {
  // The admission filter reads only op and bytes, so rejected rows
  // (the common case on mixed traces) cost two column reads, and
  // admitted rows pass on only the columns the detectors read.
  const Bytes admit_bytes = options_.stripe_size / 4;
  const bool classed = options_.ost_count != 0;
  const bool drift = options_.drift_d > 0.0;
  // Every array is sized for the whole batch up front and written
  // through a cursor, then trimmed to the rows admitted.
  const std::size_t first = seg.duration.size();
  const std::size_t most = first + b.size();
  auto room = [most](auto& v) {
    if (v.capacity() < most) v.reserve(std::max(most, 2 * v.capacity()));
    v.resize(most);
  };
  if (classed) room(seg.cls);
  room(seg.duration);
  room(seg.start);
  room(seg.pos);
  if (drift) room(seg.op);
  std::size_t rows = first;
  Segment::Run* run = nullptr;  // the open run, if any
  for (std::size_t i = 0; i < b.size(); ++i) {
    const auto op = static_cast<posix::OpType>(b.op[i]);
    if (op == posix::OpType::kFault) {
      // A marker's offset is its fault::Kind, whose underlying type is
      // one byte, so the narrowing keeps the value on_marker() decodes.
      seg.markers.push_back({b.start[i], b.duration[i], b.file[i], base + i,
                             rows, b.rank[i],
                             static_cast<std::uint8_t>(b.offset[i])});
      continue;
    }
    if (!is_data_op(op) || b.bytes[i] < admit_bytes) continue;
    const double start = b.start[i];
    const double duration = b.duration[i];
    const std::int32_t phase = b.phase[i];
    if (run == nullptr || phase != run->phase) {
      if (run != nullptr) close_run(seg);
      run = &seg.runs.emplace_back(
          Segment::Run{phase, rows, seg.ends.size(), start});
    } else if (start < run->start) {
      run->start = start;
    }
    const RankId rank = b.rank[i];
    if (rank_end_.size() <= rank) {
      rank_end_.resize(static_cast<std::size_t>(rank) + 1, -1.0);
    }
    const double end = start + duration;
    double& latest = rank_end_[rank];
    if (latest < 0.0) {
      touched_.push_back(rank);
      latest = end;
    } else if (latest < end) {
      latest = end;
    }
    if (classed) seg.cls[rows] = class_of(b.file[i]);
    seg.duration[rows] = duration;
    seg.start[rows] = start;
    seg.pos[rows] = base + i;
    if (drift) seg.op[rows] = b.op[i];
    ++rows;
  }
  if (run != nullptr) close_run(seg);
  if (classed) seg.cls.resize(rows);
  seg.duration.resize(rows);
  seg.start.resize(rows);
  seg.pos.resize(rows);
  if (drift) seg.op.resize(rows);
}

void HealthKernel::close_run(Segment& seg) {
  for (RankId rank : touched_) {
    seg.ends.emplace_back(rank, rank_end_[rank]);
    rank_end_[rank] = -1.0;
  }
  touched_.clear();
}

void HealthKernel::merge(HealthKernel&& rhs) {
  if (!options_.enabled) return;
  if (rooted_) {
    apply(rhs.segment_, consumed_);
  } else {
    segment_.append(rhs.segment_, consumed_);
  }
  consumed_ += rhs.consumed_;
}

void HealthKernel::apply(const Segment& seg, std::uint64_t base) {
  // Walk the segment's events in row order. Within one row the order is
  // a serial pass's: phase close, window push, evaluation; a marker
  // comes before the data row it precedes. Window rows only matter to
  // evaluations, so they are pushed in bulk just before each one.
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  const std::size_t rows = seg.duration.size();
  const std::size_t stride = options_.stride;
  std::size_t due = stride - 1 - since_eval_;  // row completing a stride
  std::size_t pushed = 0;
  std::size_t run = 0;
  std::size_t marker = 0;
  for (;;) {
    const std::size_t at_marker =
        marker < seg.markers.size() ? seg.markers[marker].before : kNone;
    const std::size_t at_run =
        run < seg.runs.size() ? seg.runs[run].first : kNone;
    const std::size_t at_eval = due < rows ? due : kNone;
    const std::size_t at = std::min({at_marker, at_run, at_eval});
    if (at == kNone) break;
    if (at_marker == at) {
      const Segment::Marker& m = seg.markers[marker++];
      on_marker(m.kind, m.component, m.rank, m.time, m.detail, base + m.pos);
    } else if (at_run == at) {
      enter_run(seg, run++, base);
    } else {
      push_rows(seg, pushed, at + 1);
      pushed = at + 1;
      evaluate_windows(base + seg.pos[at], seg.start[at]);
      due += stride;
    }
  }
  push_rows(seg, pushed, rows);
  since_eval_ = (since_eval_ + rows) % stride;
  // The last admitted row sets the time a final evaluation reports: a
  // marker after every data row already did.
  if (rows > 0 && (seg.markers.empty() || seg.markers.back().before < rows)) {
    last_time_ = seg.start[rows - 1];
  }
}

void HealthKernel::enter_run(const Segment& seg, std::size_t r,
                             std::uint64_t base) {
  const Segment::Run& run = seg.runs[r];
  // An admitted event with a later phase proves every earlier phase is
  // barrier-complete, so close them. The close + map lookup only run on
  // a phase transition; a run continuing the current phase (a batch or
  // segment boundary inside it) joins the cached aggregate, which is
  // current (transitions are the only place aggs are created, so no
  // lower phase can appear in between).
  if (cur_agg_ == nullptr || run.phase != cur_phase_) {
    close_phases_below(run.phase, base + seg.pos[run.first],
                       seg.start[run.first]);
    cur_agg_ = &phases_[run.phase];
    cur_phase_ = run.phase;
  }
  const bool last = r + 1 == seg.runs.size();
  const std::size_t ends_end = last ? seg.ends.size() : seg.runs[r + 1].ends;
  for (std::size_t e = run.ends; e < ends_end; ++e) {
    cur_agg_->add(run.start, seg.ends[e].second, seg.ends[e].first);
  }
  const std::size_t rows_end =
      last ? seg.duration.size() : seg.runs[r + 1].first;
  phase_events_ += rows_end - run.first;
}

void HealthKernel::push_rows(const Segment& seg, std::size_t from,
                             std::size_t to) {
  if (from == to) return;
  if (options_.ost_count != 0) {
    // Fill the ring, then overwrite at the wrap cursor. Rows a later
    // row of the same copy would overwrite are skipped (only the
    // cursor moves past them).
    const std::size_t window = options_.window;
    std::size_t i = from;
    if (ring_class_.size() < window) {
      const std::size_t take = std::min(to - i, window - ring_class_.size());
      ring_class_.insert(ring_class_.end(), seg.cls.begin() + i,
                         seg.cls.begin() + i + take);
      ring_duration_.insert(ring_duration_.end(), seg.duration.begin() + i,
                            seg.duration.begin() + i + take);
      i += take;
    }
    if (to - i > window) {
      ring_next_ = (ring_next_ + (to - i - window)) % window;
      i = to - window;
    }
    while (i < to) {
      const std::size_t take = std::min(to - i, window - ring_next_);
      std::copy_n(seg.cls.begin() + i, take, ring_class_.begin() + ring_next_);
      std::copy_n(seg.duration.begin() + i, take,
                  ring_duration_.begin() + ring_next_);
      ring_next_ += take;
      if (ring_next_ == window) ring_next_ = 0;
      i += take;
    }
  }
  // Drift: per-op warm-up baseline, then a sliding current window.
  if (options_.drift_d > 0.0) {
    for (std::size_t i = from; i < to; ++i) {
      DriftState& d = drift_[seg.op[i]];
      const double duration = seg.duration[i];
      if (!d.frozen) {
        d.baseline.push_back(duration);
        if (d.baseline.size() >= options_.drift_window) {
          d.frozen = true;
          std::sort(d.baseline.begin(), d.baseline.end());
        }
      } else {
        d.recent.push_back(duration);
        if (d.recent.size() > options_.drift_window) d.recent.pop_front();
        ++d.since_freeze;
      }
    }
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
  const auto v = straggler_.verdict(phase_events_);
  std::optional<std::uint64_t> firing;
  if (v) firing = v->rank;
  score(IncidentKind::kStragglerRank, firing, straggler_.worst_gap(),
        analysis::rules::kStragglerGap, v ? v->severity : 0.0,
        [&v] {
          return "rank " + std::to_string(v->rank) + ": slowest in " +
                 std::to_string(v->votes) + " of " +
                 std::to_string(v->firing) +
                 " stretched phases (worst gap " + fmt(v->worst_gap) +
                 "x the second-slowest)";
        },
        idx, time);
}

void HealthKernel::evaluate_windows(std::uint64_t idx, double time) {
  ++counts_.windows_evaluated;
  OBS_COUNTER_ADD("monitor.windows_evaluated", 1);
  evaluate_degraded(idx, time);
  evaluate_drift(idx, time);
}

void HealthKernel::evaluate_degraded(std::uint64_t idx, double time) {
  if (options_.ost_count == 0) return;
  std::optional<analysis::rules::DegradedOst> v;
  const std::size_t rows = ring_class_.size();
  if (rows >= analysis::rules::kMinEvents) {
    // The diagnose rule over the sliding window. One counting sort
    // buckets the ring by class into scratch sized once (and again
    // while the ring fills; each class in ring order), and the rule
    // selects medians in place.
    const std::uint32_t osts = options_.ost_count;
    if (class_spans_.empty()) {
      class_start_.resize(std::size_t{osts} + 2);
      class_fill_.resize(std::size_t{osts} + 1);
      class_spans_.resize(osts);
    }
    if (by_class_.size() < rows) by_class_.resize(rows);  // the ring grew
    const std::uint32_t* cls = ring_class_.data();
    const double* dur = ring_duration_.data();
    auto bucket = [osts](std::uint32_t c) -> std::size_t {
      return std::min(c, osts);  // kNoClass -> the last bucket
    };
    std::size_t* start = class_start_.data();
    std::fill(class_start_.begin(), class_start_.end(), 0);
    for (std::size_t i = 0; i < rows; ++i) ++start[bucket(cls[i]) + 1];
    for (std::size_t b = 0; b <= osts; ++b) start[b + 1] += start[b];
    std::size_t* fill = class_fill_.data();
    std::copy_n(start, osts + 1, fill);
    double* sorted = by_class_.data();
    for (std::size_t i = 0; i < rows; ++i) sorted[fill[bucket(cls[i])]++] = dur[i];
    for (std::uint32_t ost = 0; ost < osts; ++ost) {
      class_spans_[ost] = {sorted + start[ost], start[ost + 1] - start[ost]};
    }
    v = analysis::rules::degraded_ost(rows, class_spans_, degraded_scratch_);
  }
  std::optional<std::uint64_t> firing;
  if (v) firing = v->ost;
  score(IncidentKind::kDegradedOst, firing, v ? v->ratio : 0.0,
        analysis::rules::kDegradedRatio, v ? v->severity : 0.0,
        [&v, rows] {
          return "OST " + std::to_string(v->ost) + ": class median runs " +
                 fmt(v->ratio) + "x the fleet median over the last " +
                 std::to_string(rows) + " bulk transfers (" +
                 std::to_string(v->events) + " events; runner-up at " +
                 fmt(v->runner_up) + "x)";
        },
        idx, time);
}

void HealthKernel::evaluate_drift(std::uint64_t idx, double time) {
  if (options_.drift_d <= 0.0) return;
  // Each op with a frozen baseline and a full, baseline-disjoint
  // current window gets its own KS test — one score() per op so the
  // hysteresis tracks stay per-subject. The baseline was sorted when
  // it froze.
  for (auto& [op, d] : drift_) {
    if (!d.frozen || d.recent.size() < options_.drift_window) continue;
    drift_current_.assign(d.recent.begin(), d.recent.end());
    std::sort(drift_current_.begin(), drift_current_.end());
    const stats::KsResult ks =
        stats::ks_two_sample_sorted(d.baseline, drift_current_);
    const bool fires = ks.statistic >= options_.drift_d;
    std::optional<std::uint64_t> firing;
    if (fires) firing = op;
    score(IncidentKind::kDistributionDrift, firing, ks.statistic,
          options_.drift_d, fires ? std::min(1.0, ks.statistic) : 0.0,
          [&, op = op] {
            return std::string(posix::op_name(static_cast<posix::OpType>(op))) +
                   " durations: KS D = " + fmt(ks.statistic) +
                   " vs the warm-up baseline (" +
                   std::to_string(options_.drift_window) + " samples each)";
          },
          idx, time);
  }
}

template <typename Evidence>
void HealthKernel::score(IncidentKind kind,
                         std::optional<std::uint64_t> firing, double statistic,
                         double threshold, double severity,
                         const Evidence& evidence, std::uint64_t idx,
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
      inc.evidence = evidence();
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
        inc.evidence = evidence();
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
