// Self-observability: the process-wide metrics registry and span
// tracer.
//
// The paper's thesis — you cannot understand a parallel system without
// instrumenting it and looking at distributions of its internal events
// — applied to ensembleio itself. Every layer of the tool (sim engine,
// sink chain, chunk-parallel scanner, ensemble runner) reports into one
// Registry of named counters, gauges, and latency statistics, and
// wraps its wall-clock phases in RAII spans. Exporters (obs/export.h)
// turn the result into a Chrome trace-event JSON, a flat metrics
// report, or an end-of-run summary table.
//
// Overhead contract:
//  * compiled out (-DEIO_OBS=OFF): every macro expands to nothing;
//  * compiled in, runtime-disabled (the default): one relaxed atomic
//    load and a predictable branch per instrumentation site;
//  * enabled: counters and gauges are lock-free — each thread owns a
//    shard and bumps it through std::atomic_ref with relaxed ordering,
//    so the hot path never takes a lock and never contends a cache
//    line with another thread. Span ends and latency records take only
//    the recording thread's own shard mutex, which is uncontended
//    except while a snapshot or export is being cut.
//
// Determinism contract: counter values depend only on the work done
// (chunks decoded, events captured, bytes moved), never on thread
// interleaving — a metrics report's counter section is byte-identical
// for any --jobs value. Span timestamps and latency distributions are
// wall-clock and therefore vary run to run; they live in separate
// report sections.
//
// The latency cells reuse the repo's own streaming kernels
// (stats::StreamingMoments per shard, stats::Histogram bins merged
// exactly on snapshot), so the tool measures its runtime with the same
// mathematics it applies to I/O traces.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/distribution.h"
#include "core/histogram.h"

namespace eio::obs {

/// True when observability is compiled in (the default; configure with
/// -DEIO_OBS=OFF to compile every site out).
#if defined(EIO_OBS_DISABLED)
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

namespace detail {
inline std::atomic<bool>& enabled_flag() noexcept {
  static std::atomic<bool> flag{false};
  return flag;
}
}  // namespace detail

/// The runtime master switch. Off by default; the CLI and benches turn
/// it on when any --chrome-trace / --metrics / --obs-summary flag is
/// present. The check is a relaxed load — safe to call from any thread
/// at any rate.
[[nodiscard]] inline bool enabled() noexcept {
  return kCompiledIn && detail::enabled_flag().load(std::memory_order_relaxed);
}

inline void set_enabled(bool on) noexcept {
  detail::enabled_flag().store(on, std::memory_order_relaxed);
}

/// Interned id of a metric or span name. Ids are dense, stable for the
/// process lifetime (reset() clears values, not names), and assigned in
/// interning order.
using MetricId = std::uint32_t;

/// One completed span, timestamped in seconds since the registry epoch.
struct SpanRecord {
  MetricId name = 0;
  std::uint32_t tid = 0;    ///< registry-assigned dense thread id
  std::uint32_t depth = 0;  ///< nesting depth inside this thread
  double t_begin = 0.0;
  double t_end = 0.0;
};

/// A SpanRecord with its name resolved (export form).
struct NamedSpan {
  std::string name;
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;
  double t_begin = 0.0;
  double t_end = 0.0;
};

/// One instant event (a point on the timeline — e.g. a monitor
/// incident opening), timestamped like spans.
struct InstantRecord {
  MetricId name = 0;  ///< span-name id space
  std::uint32_t tid = 0;
  double t = 0.0;
};

/// An InstantRecord with its name resolved (export form).
struct NamedInstant {
  std::string name;
  std::uint32_t tid = 0;
  double t = 0.0;
};

struct CounterValue {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeValue {
  std::string name;
  std::int64_t value = 0;
};

/// Merged latency statistics for one span name: every per-thread shard
/// folded together (moments via Pébay's pairwise update, histogram bins
/// exactly).
struct LatencySummary {
  std::string name;
  stats::Moments moments;  ///< of span durations, in seconds
  double total_s = 0.0;
  double min_s = 0.0;
  double max_s = 0.0;
  /// Histogram-bin quantiles (log-binned), clamped to [min_s, max_s].
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
};

/// A merged, name-resolved view of the registry, cut at one instant.
/// Counters and gauges are sorted by name so serialized snapshots are
/// deterministic.
struct Snapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<LatencySummary> latency;
  std::uint64_t spans_recorded = 0;
  std::uint64_t spans_dropped = 0;
};

/// The process-wide registry. All members are thread-safe.
class Registry {
 public:
  static Registry& instance();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Intern a name (idempotent). Counter, gauge, and span names live in
  /// separate id spaces.
  [[nodiscard]] MetricId counter_id(std::string_view name);
  [[nodiscard]] MetricId gauge_id(std::string_view name);
  [[nodiscard]] MetricId span_id(std::string_view name);

  /// Lock-free on the hot path (per-thread shard, relaxed atomic_ref).
  void counter_add(MetricId id, std::uint64_t delta);
  /// Gauges sum across threads; set() from a single thread records an
  /// absolute value.
  void gauge_set(MetricId id, std::int64_t value);

  /// Record one completed span: appends a SpanRecord and folds the
  /// duration into the per-thread latency cell for `id`. Takes only the
  /// calling thread's shard mutex.
  void span_end(MetricId id, double t_begin, double t_end,
                std::uint32_t depth);

  /// Record an instant event at now() (span-name id space). Instants
  /// land on the Chrome-trace timeline next to the spans; they carry
  /// no latency cell.
  void instant_mark(MetricId id);

  /// Current nesting depth bookkeeping for the calling thread (used by
  /// Span; owner-thread-only, no synchronization needed).
  [[nodiscard]] std::uint32_t enter_span();
  void leave_span();

  /// Seconds since the registry epoch (steady clock; reset() rebases).
  [[nodiscard]] double now() const noexcept;

  /// Merge every shard into one name-resolved view.
  [[nodiscard]] Snapshot snapshot() const;

  /// All recorded spans, name-resolved, in per-thread completion order.
  [[nodiscard]] std::vector<NamedSpan> spans() const;

  /// All recorded instants, name-resolved, in per-thread record order.
  [[nodiscard]] std::vector<NamedInstant> instants() const;

  /// Zero every counter/gauge, drop spans and latency cells, and rebase
  /// the epoch. Interned names and thread ids survive. Must not be
  /// called while a span is open.
  void reset();

 private:
  Registry();
  ~Registry();  // defined where Shard/Names are complete

  struct Shard;
  struct Names;

  [[nodiscard]] Shard& local_shard();

  std::unique_ptr<Names> names_;
  mutable std::mutex shards_mu_;  ///< guards the shard list itself
  std::vector<std::shared_ptr<Shard>> shards_;
  /// Epoch as a raw steady_clock tick count, atomic so reset() can
  /// rebase while other threads stamp spans.
  std::atomic<std::chrono::steady_clock::rep> epoch_{0};
};

/// RAII wall-clock span. Construction samples the clock and pushes the
/// thread's span stack; destruction records the completed SpanRecord
/// and its duration. A span built while obs is disabled records
/// nothing, even if obs is enabled before it closes.
class Span {
 public:
  explicit Span(MetricId id) {
    if (!enabled()) return;
    Registry& r = Registry::instance();
    id_ = id;
    depth_ = r.enter_span();
    t_begin_ = r.now();
    active_ = true;
  }

  ~Span() {
    if (!active_) return;
    Registry& r = Registry::instance();
    r.span_end(id_, t_begin_, r.now(), depth_);
    r.leave_span();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  MetricId id_ = 0;
  std::uint32_t depth_ = 0;
  double t_begin_ = 0.0;
  bool active_ = false;
};

/// Record a named instant event (no-op while disabled). Unlike the
/// macros below the name may be dynamic — instants are rare (monitor
/// incidents), so per-call interning is fine.
inline void record_instant(std::string_view name) {
  if (!enabled()) return;
  Registry& r = Registry::instance();
  r.instant_mark(r.span_id(name));
}

}  // namespace eio::obs

// ---------------------------------------------------------------------------
// Instrumentation macros. `name` must be a string literal (or at least
// stable for the process lifetime); interning happens once per site via
// a function-local static.

#define EIO_OBS_CONCAT2(a, b) a##b
#define EIO_OBS_CONCAT(a, b) EIO_OBS_CONCAT2(a, b)

#if defined(EIO_OBS_DISABLED)

// The value expression stays unevaluated (sizeof operand) so arguments
// that only exist to feed a metric don't trip -Wunused when the layer
// is compiled out, yet still cost nothing.
#define OBS_SPAN(name) ((void)0)
#define OBS_COUNTER_ADD(name, delta) ((void)sizeof(delta))
#define OBS_GAUGE_SET(name, value) ((void)sizeof(value))

#else

/// Open a wall-clock span that closes at end of scope.
#define OBS_SPAN(name)                                                     \
  static const ::eio::obs::MetricId EIO_OBS_CONCAT(eio_obs_sid_,           \
                                                   __LINE__) =             \
      ::eio::obs::Registry::instance().span_id(name);                      \
  ::eio::obs::Span EIO_OBS_CONCAT(eio_obs_span_, __LINE__)(                \
      EIO_OBS_CONCAT(eio_obs_sid_, __LINE__))

/// Bump a named counter by `delta` (no-op while disabled).
#define OBS_COUNTER_ADD(name, delta)                                       \
  do {                                                                     \
    if (::eio::obs::enabled()) {                                           \
      static const ::eio::obs::MetricId eio_obs_cid =                      \
          ::eio::obs::Registry::instance().counter_id(name);               \
      ::eio::obs::Registry::instance().counter_add(                        \
          eio_obs_cid, static_cast<std::uint64_t>(delta));                 \
    }                                                                      \
  } while (0)

#define OBS_GAUGE_SET(name, value)                                         \
  do {                                                                     \
    if (::eio::obs::enabled()) {                                           \
      static const ::eio::obs::MetricId eio_obs_gid =                      \
          ::eio::obs::Registry::instance().gauge_id(name);                 \
      ::eio::obs::Registry::instance().gauge_set(                          \
          eio_obs_gid, static_cast<std::int64_t>(value));                  \
    }                                                                      \
  } while (0)

#endif  // EIO_OBS_DISABLED
