#include "obs/registry.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/streaming.h"

namespace eio::obs {

namespace {

/// Fixed log10 binning for span durations: 1 ns .. 1000 s, 4 bins per
/// decade. Every latency cell shares it, so shard histograms merge
/// exactly and quantiles are bin-center estimates with a known bound.
constexpr double kLatencyLo = 1e-9;
constexpr double kLatencyHi = 1e3;
constexpr std::size_t kLatencyBins = 48;

/// Span records kept per thread before dropping (and counting the
/// drops): bounds memory on pathological always-on captures.
constexpr std::size_t kMaxSpansPerShard = 1u << 20;

stats::Histogram make_latency_histogram() {
  return stats::Histogram(stats::BinScale::kLog10, kLatencyLo, kLatencyHi,
                          kLatencyBins);
}

/// Quantile from exact histogram bins: center of the bin holding the
/// rank-ceil(q*N) sample, clamped to the exact sample range [min, max]. A bin center (or the lo/hi edge for
/// under/overflow) can lie outside the samples it stands for — a
/// single 1.06 s span would otherwise report p95 = 1.33 s.
double histogram_quantile(const stats::Histogram& h, std::size_t n, double q,
                          double min, double max) {
  if (n == 0) return 0.0;
  auto rank = static_cast<std::uint64_t>(
      std::max<double>(1.0, std::ceil(q * static_cast<double>(n))));
  double estimate = h.hi();
  std::uint64_t seen = h.underflow();
  if (seen >= rank) {
    estimate = h.lo();
  } else {
    for (std::size_t b = 0; b < h.bin_count(); ++b) {
      seen += h.count(b);
      if (seen >= rank) {
        estimate = h.bin_center(b);
        break;
      }
    }
  }
  return std::clamp(estimate, min, max);
}

}  // namespace

/// One latency cell: the shard-local accumulators for one span name.
struct LatencyCell {
  stats::StreamingMoments moments;
  stats::Histogram hist = make_latency_histogram();
  double total = 0.0;
  double min = 0.0;
  double max = 0.0;

  void add(double d) {
    if (moments.count() == 0) {
      min = max = d;
    } else {
      min = std::min(min, d);
      max = std::max(max, d);
    }
    moments.add(d);
    hist.add(d);
    total += d;
  }
};

/// Per-thread storage. Counters/gauges are written only by the owning
/// thread (through relaxed atomic_ref) and read by snapshots; `mu`
/// excludes the rare structural changes (vector growth) and snapshot
/// reads from each other. Latency cells and span records are mutated
/// under `mu` (uncontended for the owner except while a snapshot is
/// being cut).
struct Registry::Shard {
  mutable std::mutex mu;
  std::vector<std::uint64_t> counters;
  std::vector<std::int64_t> gauges;
  std::vector<LatencyCell> latency;
  std::vector<SpanRecord> spans;
  std::vector<InstantRecord> instants;
  std::uint64_t spans_dropped = 0;
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;  ///< owner-thread-only span nesting depth
};

struct Registry::Names {
  std::mutex mu;
  std::map<std::string, MetricId, std::less<>> counters;
  std::map<std::string, MetricId, std::less<>> gauges;
  std::map<std::string, MetricId, std::less<>> spans;

  static MetricId intern(std::map<std::string, MetricId, std::less<>>& table,
                         std::string_view name) {
    auto it = table.find(name);
    if (it != table.end()) return it->second;
    auto id = static_cast<MetricId>(table.size());
    table.emplace(std::string(name), id);
    return id;
  }

  /// name-by-id view (ids are dense interning ranks).
  static std::vector<std::string> resolve(
      const std::map<std::string, MetricId, std::less<>>& table) {
    std::vector<std::string> names(table.size());
    for (const auto& [name, id] : table) names[id] = name;
    return names;
  }
};

Registry& Registry::instance() {
  static Registry* registry = new Registry();  // never destroyed: shards
  return *registry;                            // outlive exiting threads
}

Registry::~Registry() = default;

Registry::Registry() : names_(std::make_unique<Names>()) {
  epoch_.store(std::chrono::steady_clock::now().time_since_epoch().count(),
               std::memory_order_relaxed);
}

MetricId Registry::counter_id(std::string_view name) {
  std::lock_guard<std::mutex> lock(names_->mu);
  return Names::intern(names_->counters, name);
}

MetricId Registry::gauge_id(std::string_view name) {
  std::lock_guard<std::mutex> lock(names_->mu);
  return Names::intern(names_->gauges, name);
}

MetricId Registry::span_id(std::string_view name) {
  std::lock_guard<std::mutex> lock(names_->mu);
  return Names::intern(names_->spans, name);
}

Registry::Shard& Registry::local_shard() {
  thread_local std::shared_ptr<Shard> shard = [this] {
    auto s = std::make_shared<Shard>();
    std::lock_guard<std::mutex> lock(shards_mu_);
    s->tid = static_cast<std::uint32_t>(shards_.size());
    shards_.push_back(s);
    return s;
  }();
  return *shard;
}

void Registry::counter_add(MetricId id, std::uint64_t delta) {
  Shard& s = local_shard();
  if (id >= s.counters.size()) {
    // Growth is owner-only and rare; the lock fences it against a
    // concurrent snapshot walking the vector.
    std::lock_guard<std::mutex> lock(s.mu);
    s.counters.resize(id + 1, 0);
  }
  std::atomic_ref<std::uint64_t>(s.counters[id])
      .fetch_add(delta, std::memory_order_relaxed);
}

void Registry::gauge_set(MetricId id, std::int64_t value) {
  Shard& s = local_shard();
  if (id >= s.gauges.size()) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.gauges.resize(id + 1, 0);
  }
  std::atomic_ref<std::int64_t>(s.gauges[id])
      .store(value, std::memory_order_relaxed);
}

void Registry::span_end(MetricId id, double t_begin, double t_end,
                        std::uint32_t depth) {
  Shard& s = local_shard();
  std::lock_guard<std::mutex> lock(s.mu);
  if (id >= s.latency.size()) s.latency.resize(id + 1);
  s.latency[id].add(t_end - t_begin);
  if (s.spans.size() >= kMaxSpansPerShard) {
    ++s.spans_dropped;
    return;
  }
  s.spans.push_back(SpanRecord{id, s.tid, depth, t_begin, t_end});
}

void Registry::instant_mark(MetricId id) {
  Shard& s = local_shard();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.instants.size() >= kMaxSpansPerShard) {
    ++s.spans_dropped;
    return;
  }
  s.instants.push_back(InstantRecord{id, s.tid, now()});
}

std::uint32_t Registry::enter_span() { return local_shard().depth++; }

void Registry::leave_span() { --local_shard().depth; }

double Registry::now() const noexcept {
  using clock = std::chrono::steady_clock;
  clock::rep ticks = clock::now().time_since_epoch().count() -
                     epoch_.load(std::memory_order_relaxed);
  return static_cast<double>(ticks) *
         (static_cast<double>(clock::period::num) /
          static_cast<double>(clock::period::den));
}

Snapshot Registry::snapshot() const {
  std::vector<std::shared_ptr<Shard>> shards;
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    shards = shards_;
  }
  std::vector<std::string> counter_names, gauge_names, span_names;
  {
    std::lock_guard<std::mutex> lock(names_->mu);
    counter_names = Names::resolve(names_->counters);
    gauge_names = Names::resolve(names_->gauges);
    span_names = Names::resolve(names_->spans);
  }

  std::vector<std::uint64_t> counters(counter_names.size(), 0);
  std::vector<std::int64_t> gauges(gauge_names.size(), 0);
  struct MergedCell {
    stats::StreamingMoments moments;
    stats::Histogram hist = make_latency_histogram();
    double total = 0.0, min = 0.0, max = 0.0;
    bool any = false;
  };
  std::vector<MergedCell> latency(span_names.size());
  std::uint64_t spans_recorded = 0, spans_dropped = 0;

  for (const auto& shard : shards) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (std::size_t i = 0; i < shard->counters.size() && i < counters.size();
         ++i) {
      counters[i] += std::atomic_ref<std::uint64_t>(shard->counters[i])
                         .load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < shard->gauges.size() && i < gauges.size();
         ++i) {
      gauges[i] += std::atomic_ref<std::int64_t>(shard->gauges[i])
                       .load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < shard->latency.size() && i < latency.size();
         ++i) {
      const LatencyCell& cell = shard->latency[i];
      if (cell.moments.count() == 0) continue;
      MergedCell& m = latency[i];
      m.min = m.any ? std::min(m.min, cell.min) : cell.min;
      m.max = m.any ? std::max(m.max, cell.max) : cell.max;
      m.any = true;
      m.total += cell.total;
      m.moments.merge(cell.moments);
      m.hist.merge(cell.hist);
    }
    spans_recorded += shard->spans.size();
    spans_dropped += shard->spans_dropped;
  }

  Snapshot snap;
  snap.spans_recorded = spans_recorded;
  snap.spans_dropped = spans_dropped;
  for (std::size_t i = 0; i < counter_names.size(); ++i) {
    snap.counters.push_back(CounterValue{counter_names[i], counters[i]});
  }
  for (std::size_t i = 0; i < gauge_names.size(); ++i) {
    snap.gauges.push_back(GaugeValue{gauge_names[i], gauges[i]});
  }
  for (std::size_t i = 0; i < latency.size(); ++i) {
    const MergedCell& m = latency[i];
    if (!m.any) continue;
    LatencySummary s;
    s.name = span_names[i];
    s.moments = m.moments.moments();
    s.total_s = m.total;
    s.min_s = m.min;
    s.max_s = m.max;
    std::size_t n = m.moments.count();
    s.p50_s = histogram_quantile(m.hist, n, 0.50, m.min, m.max);
    s.p95_s = histogram_quantile(m.hist, n, 0.95, m.min, m.max);
    s.p99_s = histogram_quantile(m.hist, n, 0.99, m.min, m.max);
    snap.latency.push_back(std::move(s));
  }
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.latency.begin(), snap.latency.end(), by_name);
  return snap;
}

std::vector<NamedSpan> Registry::spans() const {
  std::vector<std::shared_ptr<Shard>> shards;
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    shards = shards_;
  }
  std::vector<std::string> span_names;
  {
    std::lock_guard<std::mutex> lock(names_->mu);
    span_names = Names::resolve(names_->spans);
  }
  std::vector<NamedSpan> out;
  for (const auto& shard : shards) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.reserve(out.size() + shard->spans.size());
    for (const SpanRecord& r : shard->spans) {
      out.push_back(NamedSpan{r.name < span_names.size() ? span_names[r.name]
                                                         : "?",
                              r.tid, r.depth, r.t_begin, r.t_end});
    }
  }
  return out;
}

std::vector<NamedInstant> Registry::instants() const {
  std::vector<std::shared_ptr<Shard>> shards;
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    shards = shards_;
  }
  std::vector<std::string> span_names;
  {
    std::lock_guard<std::mutex> lock(names_->mu);
    span_names = Names::resolve(names_->spans);
  }
  std::vector<NamedInstant> out;
  for (const auto& shard : shards) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.reserve(out.size() + shard->instants.size());
    for (const InstantRecord& r : shard->instants) {
      out.push_back(NamedInstant{
          r.name < span_names.size() ? span_names[r.name] : "?", r.tid, r.t});
    }
  }
  return out;
}

void Registry::reset() {
  std::vector<std::shared_ptr<Shard>> shards;
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    shards = shards_;
  }
  for (const auto& shard : shards) {
    std::lock_guard<std::mutex> lock(shard->mu);
    std::fill(shard->counters.begin(), shard->counters.end(), 0);
    std::fill(shard->gauges.begin(), shard->gauges.end(), 0);
    shard->latency.clear();
    shard->spans.clear();
    shard->instants.clear();
    shard->spans_dropped = 0;
  }
  epoch_.store(std::chrono::steady_clock::now().time_since_epoch().count(),
               std::memory_order_relaxed);
}

}  // namespace eio::obs
