// Online I/O health monitoring: streaming anomaly detection with
// deterministic incident records.
//
// The paper's core claim is that ensemble distributions of I/O event
// times are stable and reproducible — so *deviation from the
// distribution is a signal*. This module promotes the post-hoc
// core/diagnose detectors into an online layer that watches the event
// stream as it flows (through an EventSink during simulation, or as a
// Kernel inside the chunk-parallel analysis scan) and emits typed
// Incident records while the pathology is happening:
//
//  * degraded-ost       — the diagnose rule (core/component_rules)
//                         over a sliding event window: rolling
//                         per-OST-class medians vs the median of class
//                         medians;
//  * straggler-rank     — the diagnose rule (core/component_rules) on
//                         phase completions, folded cumulatively as
//                         barriers close phases (it reaches the
//                         post-hoc verdict at end of stream);
//  * dist-drift         — two-sample KS statistic of the most recent
//                         per-op duration window against a frozen
//                         warm-up baseline (the IO500 statistical-
//                         characterization recipe);
//  * injected-*         — fault markers (OpType::kFault events carry
//                         the fault layer's Marker records through
//                         every trace format) are recovered into
//                         incidents directly, closing the loop: every
//                         injected plan is re-detected online.
//
// Determinism contract: incidents are a function of event content and
// window boundaries alone — never of wall clock, thread count, or
// backing format. HealthKernel models analysis::Kernel. Its per-row
// work is a parallel fold: any kernel reduces the admissible events of
// a batch (bulk data calls and fault markers — most of a bulk-transfer
// trace) to a Segment of window rows, phase runs and markers. Its
// per-segment work is the ordered merge: the chunk-0 kernel is
// "rooted" and applies each segment in stream order — phase closes at
// run starts, markers at their positions, window rows copied into the
// ring in bulk, an evaluation at each stride point. A rooted kernel's
// own batches take the same fold-then-apply path, so merging per-chunk
// partials in chunk order is value-identical to one serial pass, and
// the incident log is byte-identical for any --jobs value and across
// tsv/v3 encodings of the same values.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/units.h"
#include "core/component_rules.h"
#include "core/kernel.h"
#include "ipm/columns.h"
#include "ipm/sink.h"
#include "ipm/trace.h"

namespace eio::monitor {

/// Detector identities (the statistical three + the injected-marker
/// family that recovers fault::Plan executions online).
enum class IncidentKind : std::uint8_t {
  kDegradedOst,
  kStragglerRank,
  kDistributionDrift,
  kInjectedOstDegraded,
  kInjectedStall,
  kInjectedRetry,
  kInjectedStraggler,
};

[[nodiscard]] const char* incident_name(IncidentKind kind) noexcept;

/// One health incident: a detector firing over a span of the event
/// stream. Onset/clear are global event indices (position in the
/// stored stream), so records are exact join keys into the trace.
struct Incident {
  IncidentKind kind{};
  /// What the incident is about: OST id (degraded/injected-ost), rank
  /// (straggler/stall/retry), or posix::OpType code (drift).
  std::uint64_t subject = 0;
  std::uint64_t onset_event = 0;  ///< stream index at which it opened
  std::int64_t clear_event = -1;  ///< -1: still open at end of stream
  double onset_time = 0.0;        ///< start time of the opening event
  double clear_time = -1.0;       ///< -1: still open
  double severity = 0.0;          ///< 0..1, mirrors diagnose formulas
  double statistic = 0.0;         ///< the offending statistic
  double threshold = 0.0;         ///< what it was compared against
  std::string evidence;           ///< human-readable one-liner
};

/// Aggregate monitoring counters for one stream (fault::Counts-style:
/// deterministic, mergeable by the kernel contract).
struct Counts {
  std::uint64_t windows_evaluated = 0;  ///< sliding-window evaluations
  std::uint64_t phases_evaluated = 0;   ///< straggler phase closures
  std::uint64_t incidents_opened = 0;
  std::uint64_t incidents_cleared = 0;
  std::uint64_t degraded_ost = 0;    ///< opened, by detector
  std::uint64_t straggler_rank = 0;
  std::uint64_t drift = 0;
  std::uint64_t injected = 0;

  [[nodiscard]] std::uint64_t open_at_finish() const noexcept {
    return incidents_opened - incidents_cleared;
  }
};

/// Detector tunables. The degraded-OST and straggler thresholds are the
/// constants of the rules module diagnose also runs, so the online and
/// post-hoc layers agree by construction.
struct HealthOptions {
  /// Master switch: a disabled kernel admits nothing, reads no
  /// columns, and costs one early-out per batch — what `analyze`
  /// without --monitor pays.
  bool enabled = true;
  /// OSTs on the machine the stream came from (0 disables the
  /// degraded-OST detector). Attribution is the diagnose convention:
  /// `(file - 1) % ost_count`.
  std::uint32_t ost_count = 0;
  /// Data calls of at least stripe_size / 4 bytes are admitted (the
  /// diagnose bulk filter).
  Bytes stripe_size = 1 * MiB;
  /// Sliding-window capacity (admitted events) for the per-OST class
  /// statistics.
  std::size_t window = 2048;
  /// Admitted events between detector evaluations. Half the window:
  /// evaluations are 50%-overlapping slides, and the evaluation's
  /// O(window) counting sort and median selection amortize to ~2
  /// doubles per admitted event. The evaluations still run serially on
  /// the ordered merge (about 3,000 of them on a 4 M-event bulk trace,
  /// roughly 20 us each), so they bound how far a monitored pass
  /// parallelizes.
  std::size_t stride = 1024;
  /// Per-op sample size of the frozen warm-up baseline and of the
  /// current window the KS drift test compares against it.
  std::size_t drift_window = 256;
  /// KS D at/above which drift fires; <= 0 disables the detector (the
  /// default: phase-structured workloads — per-segment ramps, read
  /// phases after write phases — legitimately shift their duration
  /// distribution after warm-up, so drift-vs-baseline is an opt-in
  /// assertion that the workload is supposed to be stationary).
  double drift_d = 0.0;
};

/// The streaming health monitor as an analysis kernel (models
/// analysis::Kernel; see the determinism contract above) and a capture
/// sink. Construct with chunk 0 for the rooted, immediately-evaluating
/// instance — the serial scan path and the live monitor of a
/// simulated run — or chunk > 0 for a partial that folds its rows into
/// a segment the rooted kernel applies on merge.
class HealthKernel final : public ipm::EventSink {
 public:
  HealthKernel() : HealthKernel(HealthOptions{}, 0) {}
  explicit HealthKernel(HealthOptions options, std::size_t chunk = 0);

  void add_batch(const ipm::ColumnBatch& b) override;

  /// Fold a later-stream partial into this one (kernel contract:
  /// merging chunk partials in chunk order == one serial pass). A
  /// rooted kernel applies the partial's segment; an unrooted one
  /// appends it to its own.
  void merge(HealthKernel&& rhs);

  [[nodiscard]] ipm::ColumnMask required_columns() const noexcept {
    // Markers ride in offset/file, detectors read everything else.
    return options_.enabled ? ipm::kColAll : ipm::ColumnMask{0};
  }

  /// End of stream: close open phases, run a final trailing-window
  /// evaluation, and leave unresolved incidents open (clear_event
  /// stays -1). Idempotent; only meaningful on the rooted kernel.
  void finish() override;

  [[nodiscard]] const HealthOptions& options() const noexcept {
    return options_;
  }
  /// Incidents in deterministic open order (evaluation order).
  [[nodiscard]] const std::vector<Incident>& incidents() const noexcept {
    return incidents_;
  }
  [[nodiscard]] const Counts& counts() const noexcept { return counts_; }
  /// Total events consumed (all rows, admitted or not).
  [[nodiscard]] std::uint64_t events_consumed() const noexcept {
    return consumed_;
  }

 private:
  struct DriftState {
    /// Frozen (and sorted) once it reaches drift_window.
    std::vector<double> baseline;
    bool frozen = false;
    std::deque<double> recent;     ///< sliding current window
    std::uint64_t since_freeze = 0;
  };
  /// Hysteresis + open-incident bookkeeping per (kind, subject).
  struct Track {
    int hot = 0;
    int cold = 0;
    std::ptrdiff_t open = -1;    ///< index into incidents_, -1 = none
    std::uint64_t count = 0;     ///< injected-marker accumulator
    double seconds = 0.0;        ///< injected-marker accumulator
  };

  /// Class of a row without a file id, and of every row while the
  /// degraded-OST detector is off: counted toward the rule's minimum
  /// event count, never classed (as in diagnose).
  static constexpr std::uint32_t kNoClass = ~std::uint32_t{0};
  /// OST class of a data row's file, the diagnose convention.
  [[nodiscard]] std::uint32_t class_of(FileId file) const noexcept {
    return file != kInvalidFile && options_.ost_count != 0
               ? analysis::rules::ost_class(file, options_.ost_count)
               : kNoClass;
  }

  /// The admissible rows of a stream stretch, reduced by the fold to
  /// what the ordered detectors read. Data rows keep their window
  /// fields and their position; maximal same-phase runs of them carry
  /// one sparse phase aggregate each; markers keep their place among
  /// the data rows. Positions count every row (admitted or not) from
  /// the start of the segment.
  struct Segment {
    struct Run {
      std::int32_t phase = 0;
      std::size_t first = 0;  ///< its first data row
      std::size_t ends = 0;   ///< its first entry in `ends`
      double start = 0.0;     ///< earliest start among its rows
    };
    struct Marker {
      double time = 0.0;
      double detail = 0.0;
      std::uint64_t component = 0;
      std::uint64_t pos = 0;
      std::size_t before = 0;  ///< data rows that precede it
      RankId rank = 0;
      std::uint8_t kind = 0;
    };
    // Data rows, in stream order.
    std::vector<std::uint32_t> cls;  ///< OST class (degraded-OST only)
    std::vector<double> duration;
    std::vector<double> start;
    std::vector<std::uint64_t> pos;
    std::vector<std::uint8_t> op;  ///< posix::OpType (drift only)
    std::vector<Run> runs;
    /// Latest completion per rank a run touched, runs back to back.
    std::vector<std::pair<RankId, double>> ends;
    std::vector<Marker> markers;

    /// Append a later segment that starts `offset` rows after this one.
    void append(const Segment& later, std::uint64_t offset);
  };

  /// Reduce the admissible rows of `b` into `seg`; `base` is the
  /// position of b's first row in the segment.
  void fold(const ipm::ColumnBatch& b, Segment& seg, std::uint64_t base);
  /// Close the run the fold has open: its touched ranks' completions
  /// move from the dense scratch into `seg.ends`.
  void close_run(Segment& seg);
  /// Run a segment starting at stream index `base` through the
  /// detectors, in row order.
  void apply(const Segment& seg, std::uint64_t base);
  /// Enter run `r` of `seg`: close the phases it proves complete and
  /// fold its aggregate into its phase.
  void enter_run(const Segment& seg, std::size_t r, std::uint64_t base);
  /// Copy data rows [from, to) of `seg` into the window ring and the
  /// drift windows.
  void push_rows(const Segment& seg, std::size_t from, std::size_t to);
  /// Feed a fault marker to the detectors. Marker encoding
  /// (fault/plan.h): file = component, offset = kind, duration =
  /// detail seconds; `kind` is the offset narrowed to fault::Kind's
  /// one-byte underlying type.
  void on_marker(std::uint8_t kind, std::uint64_t component, RankId rank,
                 double time, double detail, std::uint64_t idx);
  void close_phases_below(std::int32_t phase, std::uint64_t idx, double time);
  void evaluate_straggler(std::uint64_t idx, double time);
  void evaluate_windows(std::uint64_t idx, double time);
  void evaluate_degraded(std::uint64_t idx, double time);
  void evaluate_drift(std::uint64_t idx, double time);

  /// One evaluation outcome for `kind`: `firing` names the offending
  /// subject (nullopt = quiet). Applies hysteresis, opens/clears.
  /// `evidence()` formats the record's one-liner; it runs only when the
  /// record takes it (an incident opens, or its statistic rises).
  template <typename Evidence>
  void score(IncidentKind kind, std::optional<std::uint64_t> firing,
             double statistic, double threshold, double severity,
             const Evidence& evidence, std::uint64_t idx, double time);
  Incident& open_incident(IncidentKind kind, std::uint64_t subject,
                          Track& track, std::uint64_t idx, double time);
  void clear_incident(Track& track, std::uint64_t idx, double time);

  HealthOptions options_;
  bool rooted_ = true;
  bool finished_ = false;
  std::uint64_t consumed_ = 0;  ///< all rows seen (global index base)
  std::uint64_t since_eval_ = 0;
  double last_time_ = 0.0;

  /// An unrooted partial's rows since its start (a rooted kernel folds
  /// each batch into a segment of its own and applies it at once).
  Segment segment_;
  /// Fold scratch for the open run: latest completion by rank (-1 =
  /// untouched) and the ranks it touched, so closing a run costs its
  /// rows, not the rank count.
  std::vector<double> rank_end_;
  std::vector<RankId> touched_;

  // --- degraded-OST sliding window: class id and duration per
  // admitted row, as two parallel arrays (kNoClass rows count toward
  // the minimum event count only). Fixed-capacity ring: order never matters to the
  // per-class medians, so eviction is an overwrite at the wrap cursor.
  std::vector<std::uint32_t> ring_class_;
  std::vector<double> ring_duration_;
  std::size_t ring_next_ = 0;
  // Evaluation scratch, sized once the ring is full so later
  // evaluations do not allocate: the ring's durations counting-sorted by class
  // (class c owns by_class_[class_start_[c], class_start_[c + 1]), in
  // ring order; kNoClass rows fill a last bucket no median reads), one
  // span per class over it, and the rule's median scratch.
  std::vector<double> by_class_;
  std::vector<std::size_t> class_start_;
  std::vector<std::size_t> class_fill_;
  std::vector<std::span<double>> class_spans_;
  analysis::rules::DegradedScratch degraded_scratch_;

  // --- straggler cumulative phase statistics. The current phase is
  // cached as a raw pointer: map nodes are stable, and the lookup
  // only reruns when the stream's phase actually changes.
  std::map<std::int32_t, analysis::rules::PhaseEnds> phases_;
  std::int32_t cur_phase_ = 0;
  analysis::rules::PhaseEnds* cur_agg_ = nullptr;
  std::uint64_t phase_events_ = 0;
  analysis::rules::StragglerTally straggler_;

  // --- per-op drift state (key: posix::OpType code), and the sorted
  // current window a KS test reads.
  std::map<std::uint8_t, DriftState> drift_;
  std::vector<double> drift_current_;

  std::map<std::pair<std::uint8_t, std::uint64_t>, Track> tracks_;
  std::vector<Incident> incidents_;
  Counts counts_;
};

static_assert(analysis::Kernel<HealthKernel>);

/// Serialize incidents as JSONL (one object per line, fixed key order,
/// %.9g doubles): deterministic given deterministic incidents. `run`
/// tags each line for multi-run ensembles.
void write_incidents_jsonl(std::ostream& out,
                           const std::vector<Incident>& incidents,
                           std::uint64_t run = 0);

/// Human-readable incident table (the `eiotrace monitor` output).
void print_incident_table(std::ostream& out,
                          const std::vector<Incident>& incidents);

/// One-line counters summary.
void print_counts(std::ostream& out, const Counts& counts);

}  // namespace eio::monitor
