#include "harness.h"

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "cli/eiotrace.h"
#include "obs/export.h"
#include "obs/registry.h"

namespace perfbench {

const std::vector<MetricSpec>& metric_table() {
  static const std::vector<MetricSpec> table = {
      // End-to-end: what a user of the pipeline sees.
      {"wall_s", "s", false, 0.25, true},
      {"wall_tail_s", "s", false, 0.25, true},
      {"calls_per_s", "1/s", true, 0.25, true},
      {"events_per_s", "1/s", true, 0.25, true},
      {"events_per_s_par", "1/s", true, 0.25, true},
      {"runs_per_s", "1/s", true, 0.25, true},
      {"peak_rss_mib", "MiB", false, 0.1, true},
      {"setup_s", "s", false, 0.25, true},
      {"success_rate", "ratio", true, 0.01, true},
      // Per-layer, from the traced run. gcrm_sim:
      {"workloads.scenario_load_s", "s", false, 0, false},
      {"workloads.instance_build_s", "s", false, 0, false},
      {"sim.execute_s", "s", false, 0, false},
      {"ipm.encode_s", "s", false, 0, false},
      {"layers.residual_share", "ratio", false, 0, false},
      {"sim.events", "count", false, 0, false},
      {"sim.reaped_per_event", "ratio", false, 0, false},
      {"sim.calendar_compactions", "count", false, 0, false},
      {"ipm.trace_bytes_per_event", "B", false, 0, false},
      {"ipm.calls", "count", true, 0, false},
      {"lustre.writes", "count", true, 0, false},
      {"lustre.small_ops", "count", true, 0, false},
      {"lustre.bytes_written", "B", true, 0, false},
      // trace_analyze:
      {"ipm.open_s", "s", false, 0, false},
      {"ipm.decode_ev_per_s", "1/s", true, 0, false},
      {"ipm.decode_selective_ev_per_s", "1/s", true, 0, false},
      {"core.fold_ev_per_s", "1/s", true, 0, false},
      {"monitor.fold_ev_per_s", "1/s", true, 0, false},
      {"core.merge_s", "s", false, 0, false},
      {"scan.par_speedup", "ratio", true, 0, false},
      {"scan.chunks", "count", true, 0, false},
      {"monitor.incidents", "count", true, 0, false},
      // campaign_sweep:
      {"workloads.expand_s", "s", false, 0, false},
      {"campaign.record_s_p50", "s", false, 0, false},
      {"campaign.record_s_sum", "s", false, 0, false},
      {"campaign.dispatch_share", "ratio", false, 0, false},
      {"campaign.merge_s", "s", false, 0, false},
      {"campaign.report_s", "s", false, 0, false},
      // Every workload:
      {"obs.overhead_ratio", "ratio", false, 0, false},
  };
  return table;
}

const MetricSpec* find_metric(const std::string& name) {
  for (const MetricSpec& m : metric_table()) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

bool Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
  return ok;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double tail(std::vector<double> xs) {
  if (xs.size() < 21) return median(std::move(xs));
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() - 11];
}

namespace {

constexpr std::size_t kCycleSlots = std::size_t{1} << 22;  // 16 MiB of u32
constexpr std::size_t kHeapCap = 50000;

volatile std::uint64_t probe_sink = 0;

/// One probe on the calling thread; returns its wall time.
double probe_wall() {
  // The probe's memory is mapped for it alone and unmapped after, so it
  // is never part of a measured RSS peak or of a forked worker's image.
  using Entry = std::pair<double, std::uint64_t>;
  const std::size_t bytes = kCycleSlots * sizeof(std::uint32_t) +
                            (kHeapCap + 1) * sizeof(Entry);
  void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::runtime_error("host probe: mmap failed");
  auto* next = static_cast<std::uint32_t*>(mem);
  auto* heap = reinterpret_cast<Entry*>(next + kCycleSlots);
  // A full-period LCG step (Hull–Dobell: a ≡ 1 mod 4, c odd): one cycle
  // through every slot, in strides no prefetcher follows.
  for (std::size_t i = 0; i < kCycleSlots; ++i) {
    next[i] = static_cast<std::uint32_t>((i * 0x2545F491u + 0x9E3779B9u) &
                                         (kCycleSlots - 1));
  }

  const double t0 = now_s();
  // Cache-missing dependent loads, then a priority queue of 50,000
  // timestamped entries under push/pop churn: the memory latency and
  // heap work of the simulator's calendar, where the host's speed
  // swings show most.
  std::uint32_t p = 0;
  for (int i = 0; i < 600000; ++i) p = next[p];
  auto later = [](const Entry& a, const Entry& b) { return a.first > b.first; };
  std::size_t size = 0;
  std::uint64_t s = 12345;
  std::uint64_t sum = p;
  for (int i = 0; i < 400000; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    heap[size++] = {static_cast<double>(s % 1000000), s};
    std::push_heap(heap, heap + size, later);
    if (size > kHeapCap) {
      std::pop_heap(heap, heap + size, later);
      sum += heap[--size].second;
    }
  }
  const double wall = now_s() - t0;

  probe_sink = sum;
  munmap(mem, bytes);
  return wall;
}

}  // namespace

double host_scale(std::size_t threads) {
  std::vector<double> walls(threads);
  std::vector<std::thread> pool;
  for (std::size_t i = 1; i < threads; ++i) {
    pool.emplace_back([&walls, i] { walls[i] = probe_wall(); });
  }
  walls[0] = probe_wall();
  for (std::thread& t : pool) t.join();
  double sum = 0.0;
  for (double w : walls) sum += w;
  const double ratio = kProbeRefS * static_cast<double>(threads) / sum;
  return std::pow(ratio, kHostElasticity);
}

std::vector<double> scaled(const std::vector<double>& walls,
                           const std::vector<double>& scales) {
  std::vector<double> out(walls.size());
  for (std::size_t i = 0; i < walls.size(); ++i) out[i] = walls[i] * scales[i];
  return out;
}

double timed_setup(std::size_t times, std::size_t probe_threads,
                   const std::function<void()>& setup) {
  Samples s;
  for (std::size_t i = 0; i < times; ++i) {
    s.scales.push_back(host_scale(probe_threads));
    double t0 = now_s();
    setup();
    s.walls.push_back(now_s() - t0);
  }
  return median(s.ref());
}

namespace {

/// The sample count and every sample, on stderr.
void print_walls(const char* what, const std::vector<double>& walls) {
  std::fprintf(stderr, "perfbench: %zu %s:", walls.size(), what);
  for (double w : walls) std::fprintf(stderr, " %.4f", w);
  std::fprintf(stderr, "\n");
}

}  // namespace

Samples time_loop(double budget_s, std::size_t min_iters,
                  std::size_t probe_threads,
                  const std::function<void()>& iteration,
                  const std::function<void()>& check) {
  Samples s;
  const double start = now_s();
  double round = 0.0;  // last probe + iteration + check, the next one's estimate
  while (s.walls.size() < min_iters || now_s() - start + round <= budget_s) {
    const double t0 = now_s();
    s.scales.push_back(host_scale(probe_threads));
    reset_peak_rss();
    const double t1 = now_s();
    iteration();
    s.walls.push_back(now_s() - t1);
    s.peak_mib = std::max(s.peak_mib, peak_rss_mib());
    check();
    round = now_s() - t0;
  }
  print_walls("iterations, wall s", s.walls);
  print_walls("iterations, reference s", s.ref());
  print_walls("host scales before them", s.scales);
  return s;
}

TracedRounds traced_rounds(double budget_s,
                           const std::function<void()>& iteration,
                           const std::function<void()>& check,
                           const std::function<void()>& probe) {
  TracedRounds r;
  begin_trace();
  const double start = now_s();
  double round = 0.0;
  while (r.probes < 2 || now_s() - start + round <= budget_s) {
    const double t0 = now_s();
    // Alternate which command goes first: the one right after a probe
    // pays for the probe's cache and heap aftermath.
    const bool traced_first = r.probes % 2 == 1;
    for (bool traced : {traced_first, !traced_first}) {
      eio::obs::set_enabled(traced);
      const double t = now_s();
      iteration();
      (traced ? r.traced : r.untraced).push_back(now_s() - t);
      check();
    }
    eio::obs::set_enabled(true);
    probe();
    ++r.probes;
    round = now_s() - t0;
  }
  print_walls("untraced iterations, wall s", r.untraced);
  print_walls("traced iterations, wall s", r.traced);
  return r;
}

void reset_peak_rss() {
  // Writing 5 to clear_refs resets VmHWM to the current RSS (Linux 4.0+).
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double children_peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void begin_trace() {
  eio::obs::Registry::instance().reset();
  eio::obs::set_enabled(true);
}

std::map<std::string, double> end_trace(const Options& opt) {
  eio::obs::set_enabled(false);
  eio::obs::Registry& reg = eio::obs::Registry::instance();
  fs::create_directories(opt.out);
  std::string stem = opt.workload;
  stem += "-seed";
  stem += std::to_string(opt.seed);
  eio::obs::write_chrome_trace_file((opt.out / (stem + ".trace.json")).string());

  // Self time: a span's duration minus the part its direct children
  // (same thread, one level deeper, inside its interval) cover.
  std::vector<eio::obs::NamedSpan> spans = reg.spans();
  std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
    return a.tid != b.tid ? a.tid < b.tid : a.t_begin < b.t_begin;
  });
  struct Row {
    std::uint64_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    double covered = 0.0;
    for (std::size_t j = i + 1; j < spans.size(); ++j) {
      const auto& c = spans[j];
      if (c.tid != s.tid || c.t_begin >= s.t_end) break;
      if (c.depth == s.depth + 1) covered += c.t_end - c.t_begin;
    }
    Row& r = rows[s.name];
    ++r.count;
    r.total += s.t_end - s.t_begin;
    r.self += s.t_end - s.t_begin - covered;
  }
  std::ofstream table(opt.out / (stem + ".layers.tsv"));
  table << "span\tcount\ttotal_s\tself_s\n";
  std::map<std::string, double> totals;
  for (const auto& [name, r] : rows) {
    char line[256];
    std::snprintf(line, sizeof line, "%s\t%llu\t%.9f\t%.9f\n", name.c_str(),
                  static_cast<unsigned long long>(r.count), r.total, r.self);
    table << line;
    totals[name] = r.total;
  }
  eio::obs::Snapshot snap = reg.snapshot();
  table << "\ncounter\tvalue\n";
  for (const auto& c : snap.counters) {
    table << c.name << "\t" << c.value << "\n";
  }
  return totals;
}

std::uint64_t obs_counter(const std::string& name) {
  for (const auto& c : eio::obs::Registry::instance().snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

double span_total(const std::string& name) {
  // The merged latency cells, not a copy of every recorded span: the
  // copy's allocations measurably slowed the next analyze pass.
  for (const auto& l : eio::obs::Registry::instance().snapshot().latency) {
    if (l.name == name) return l.total_s;
  }
  return 0.0;
}

int report(const Options& opt, const Checks& checks, Result result) {
  if (!opt.trace) {
    result.metrics["success_rate"] =
        checks.attempted() == 0
            ? 0.0
            : 1.0 - static_cast<double>(checks.failed()) /
                        static_cast<double>(checks.attempted());
  }
  std::ostringstream line;
  char num[64];
  line << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
       << ", \"attempted\": " << checks.attempted()
       << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& m : metric_table()) {
    if (m.end_to_end == opt.trace) continue;
    auto it = result.metrics.find(m.name);
    if (it == result.metrics.end() && m.end_to_end) {
      std::cerr << "perfbench: internal error: metric " << m.name
                << " was not measured\n";
      return 2;
    }
    double value = it == result.metrics.end() ? 0.0 : it->second;
    std::snprintf(num, sizeof num, "%.17g", value);
    line << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << num
         << ", \"unit\": \"" << m.unit << "\"}";
    std::fprintf(stderr, "  %-32s %16.6g %s\n", m.name, value, m.unit);
    first = false;
  }
  line << "}}";
  std::fprintf(stderr, "  checks: %llu attempted, %llu failed\n",
               static_cast<unsigned long long>(checks.attempted()),
               static_cast<unsigned long long>(checks.failed()));
  std::cout << line.str() << std::endl;
  return 0;
}

int eiotrace(const std::vector<std::string>& args, std::string* out) {
  std::ostringstream os;
  std::ostringstream es;
  int rc = eio::cli::run_eiotrace(args, os, es);
  if (rc != 0) {
    std::cerr << "perfbench: eiotrace";
    for (const std::string& a : args) std::cerr << " " << a;
    std::cerr << " -> rc " << rc << "\n" << es.str();
  }
  if (out != nullptr) *out = os.str();
  return rc;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace perfbench
