// trace_analyze: `analyze <trace> --monitor --json` at --jobs=1 and
// again at --jobs=3 over one v3 trace of at least 4 M events. Set-up
// simulates a small seeded IOR ensemble with read-back under a slow-OST
// fault and tiles its runs end to end into that trace, so the duration
// distributions, phases and the fault signature all come from the
// simulator. The timed part is all decode, kernel fold, merge and
// monitor; the simulator does nothing in it. The j1/j3 pair answers
// whether chunk-parallel scanning beats one thread at this size.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/json.h"
#include "core/kernel.h"
#include "harness.h"
#include "ipm/parallel_scan.h"
#include "ipm/trace_v3.h"
#include "monitor/health.h"
#include "obs/registry.h"
#include "workloads.h"
#include "workloads/ensemble.h"
#include "workloads/scenario.h"

namespace perfbench {

namespace {

using eio::posix::OpType;

constexpr std::uint64_t kTargetEvents = 4'000'000;
constexpr std::size_t kEnsembleRuns = 8;
constexpr std::uint32_t kOstCount = 48;  // franklin
/// Quantiles from `analyze` come from a 65,536-sample reservoir; each
/// must sit within this many ranks (as a share of the count) of the
/// exact order statistic.
constexpr double kQuantileRankBound = 0.01;
/// `analyze --json` prints 9 significant digits.
constexpr double kPrintedRelError = 1e-8;
/// Events the fold probes decode into memory up front.
constexpr std::uint64_t kFoldPrefixEvents = 1'000'000;

std::string ensemble_json(std::uint64_t seed, std::uint32_t slow_ost) {
  std::ostringstream os;
  os << "{\"schema_version\": 1, \"name\": \"trace-analyze\", \"machine\": "
        "\"franklin\", \"runs\": "
     << kEnsembleRuns << ", \"seed\": " << seed
     << ", \"workload\": {\"kind\": \"ior\", \"tasks\": 96, \"block_mib\": "
        "16, \"segments\": 5, \"calls_per_block\": 4, \"read_back\": true, "
        "\"file_per_process\": true, \"fpp_stripe_count\": 1}, \"faults\": "
        "{\"slow_osts\": [{\"ost\": "
     << slow_ost << ", \"factor\": 0.2}]}}";
  return os.str();
}

/// Exact statistics of one op's durations, from the events written.
struct Exact {
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  long double sum = 0.0;
  std::vector<double> sorted;

  void add(double d) {
    min = count == 0 ? d : std::min(min, d);
    max = count == 0 ? d : std::max(max, d);
    sum += d;
    ++count;
    sorted.push_back(d);
  }
};

bool same_printed(double got, double want) {
  return std::abs(got - want) <= kPrintedRelError * std::abs(want);
}

/// A decoded chunk held in memory (the fold probes' input).
struct OwnedBatch {
  std::vector<double> start, duration;
  std::vector<std::uint8_t> op;
  std::vector<eio::RankId> rank;
  std::vector<eio::FileId> file;
  std::vector<eio::Bytes> offset, bytes;
  std::vector<std::int32_t> phase;

  explicit OwnedBatch(const eio::ipm::ColumnBatch& b)
      : start(b.start.begin(), b.start.end()),
        duration(b.duration.begin(), b.duration.end()),
        op(b.op.begin(), b.op.end()),
        rank(b.rank.begin(), b.rank.end()),
        file(b.file.begin(), b.file.end()),
        offset(b.offset.begin(), b.offset.end()),
        bytes(b.bytes.begin(), b.bytes.end()),
        phase(b.phase.begin(), b.phase.end()) {}

  [[nodiscard]] eio::ipm::ColumnBatch view() const {
    eio::ipm::ColumnBatch b;
    b.events = start.size();
    b.start = start;
    b.duration = duration;
    b.op = op;
    b.rank = rank;
    b.file = file;
    b.offset = offset;
    b.bytes = bytes;
    b.phase = phase;
    return b;
  }
};

eio::monitor::HealthOptions monitor_options() {
  // What `analyze --monitor` uses by default.
  eio::monitor::HealthOptions opt;
  opt.ost_count = kOstCount;
  return opt;
}

/// The core kernels of the analyze bundle (everything but the monitor).
auto core_bundle(double span) {
  using namespace eio::analysis;
  EventFilter base;
  EventFilter wf = base;
  EventFilter rf = base;
  wf.op = OpType::kWrite;
  rf.op = OpType::kRead;
  eio::stats::SummaryOptions opts;
  return KernelSet(SummarySink(wf, opts), SummarySink(rf, opts),
                   PhaseSummarySink(base, opts),
                   HistogramKernel(base, {.bins = 40}),
                   RateKernel(base, span, 100));
}

class TraceAnalyze {
 public:
  TraceAnalyze(const Options& opt, Checks& checks)
      : opt_(opt),
        checks_(checks),
        slow_ost_(static_cast<std::uint32_t>(opt.seed % kOstCount)) {}

  /// Simulate the ensemble, tile it into the trace, and warm up with
  /// one analyze pass.
  void setup() {
    eio::workloads::ScenarioBuilder scenario = eio::workloads::scenario_from_json(
        eio::json::parse(ensemble_json(opt_.seed, slow_ost_)));
    eio::workloads::JobSpec job = scenario.job();
    job.capture = eio::ipm::Mode::kBoth;
    std::vector<eio::workloads::RunResult> runs =
        eio::workloads::ParallelEnsembleRunner({.jobs = 3})
            .run_ensemble(job, kEnsembleRuns);

    write_ = Exact{};
    read_ = Exact{};
    events_ = 0;
    runs_tiled_ = 0;
    std::ofstream out(trace_, std::ios::binary | std::ios::trunc);
    eio::ipm::TraceWriterV3 writer(out, "trace-analyze",
                                   runs.front().trace.ranks());
    double offset = 0.0;
    while (events_ < kTargetEvents) {
      for (const eio::workloads::RunResult& r : runs) {
        for (eio::ipm::TraceEvent e : r.trace.events()) {
          e.start += offset;
          writer.add(e);
          if (e.op == OpType::kWrite) write_.add(e.duration);
          if (e.op == OpType::kRead) read_.add(e.duration);
        }
        events_ += r.trace.size();
        offset += r.trace.span() + 1.0;
        ++runs_tiled_;
      }
    }
    writer.finish();
    out.close();
    checks_.expect(out.good(), "tiled trace written");
    std::sort(write_.sorted.begin(), write_.sorted.end());
    std::sort(read_.sorted.begin(), read_.sorted.end());
    checks_.expect(analyze(1, nullptr) == 0, "warm-up analyze exits 0");
    reference_.clear();
  }

  /// One timed iteration: the command at --jobs=1, then at --jobs=3.
  /// The per-pass walls of untraced iterations land in j1_ and j3_.
  void iterate() {
    double t0 = now_s();
    rc1_ = analyze(1, &out1_);
    double t1 = now_s();
    rc3_ = analyze(3, &out3_);
    if (!eio::obs::enabled()) {
      j1_.push_back(t1 - t0);
      j3_.push_back(now_s() - t1);
    }
  }

  void check() {
    checks_.expect(rc1_ == 0 && rc3_ == 0, "analyze exits 0 at jobs 1 and 3");
    checks_.expect(out1_ == out3_, "analyze --json byte-identical at jobs 1 and 3");
    if (reference_.empty()) {
      validate(out1_);
      reference_ = out1_;
    } else {
      checks_.expect(out1_ == reference_, "analyze output repeats exactly");
    }
  }

  /// Layer probes, each under its own span.
  void probe_layers() {
    {
      OBS_SPAN("bench.ipm.open");
      eio::ipm::ParallelTraceScanner scanner(trace_.string(), {.jobs = 1});
    }
    eio::ipm::ParallelTraceScanner scanner(trace_.string(), {.jobs = 1});
    auto count = [&](eio::ipm::ColumnMask mask) {
      return scanner.scan_columns(
          [](std::size_t) { return std::uint64_t{0}; },
          [](std::uint64_t& n, const eio::ipm::ColumnBatch& b) { n += b.size(); },
          [](std::uint64_t& into, std::uint64_t&& from) { into += from; },
          nullptr, mask);
    };
    std::uint64_t decoded = 0;
    {
      OBS_SPAN("bench.ipm.decode");
      decoded = count(eio::ipm::kColAll);
    }
    {
      OBS_SPAN("bench.ipm.decode_selective");
      decoded += count(core_bundle(span_).required_columns());
    }
    checks_.expect(decoded == 2 * events_, "probe decodes every event");
    {
      OBS_SPAN("bench.core.fold");
      auto kernels = core_bundle(span_);
      for (const OwnedBatch& b : prefix_) kernels.add_batch(b.view());
    }
    {
      OBS_SPAN("bench.monitor.fold");
      eio::monitor::HealthKernel health(monitor_options(), 0);
      for (const OwnedBatch& b : prefix_) health.add_batch(b.view());
    }
  }

  /// Decode the first chunks (up to kFoldPrefixEvents) into memory.
  void load_prefix() {
    eio::ipm::ParallelTraceScanner scanner(trace_.string(), {.jobs = 1});
    span_ = scanner.time_span();
    prefix_.clear();
    prefix_events_ = 0;
    (void)scanner.scan_columns(
        [](std::size_t) { return 0; },
        [&](int&, const eio::ipm::ColumnBatch& b) {
          if (prefix_events_ >= kFoldPrefixEvents) return;
          prefix_.emplace_back(b);
          prefix_events_ += b.size();
        },
        [](int&, int&&) {}, nullptr, eio::ipm::kColAll);
    chunks_ = scanner.index().chunks.size();
  }

  [[nodiscard]] double events() const { return static_cast<double>(events_); }
  [[nodiscard]] double runs_tiled() const {
    return static_cast<double>(runs_tiled_);
  }
  [[nodiscard]] double prefix_events() const {
    return static_cast<double>(prefix_events_);
  }
  [[nodiscard]] std::size_t chunks() const { return chunks_; }
  [[nodiscard]] std::size_t incidents() const { return incidents_; }
  [[nodiscard]] const fs::path& trace_path() const { return trace_; }
  std::vector<double> j1_, j3_;

 private:
  int analyze(std::size_t jobs, std::string* out) {
    return eiotrace({"analyze", trace_.string(), "--monitor", "--json",
                     "--jobs=" + std::to_string(jobs)},
                    out);
  }

  void check_summary(const eio::json::Value& s, const Exact& e,
                     const std::string& op) {
    checks_.expect(static_cast<std::uint64_t>(s.at("count").as_number()) ==
                       e.count,
                   op + " count exact");
    checks_.expect(same_printed(s.at("min").as_number(), e.min), op + " min exact");
    checks_.expect(same_printed(s.at("max").as_number(), e.max), op + " max exact");
    checks_.expect(same_printed(s.at("mean").as_number(),
                         static_cast<double>(e.sum / e.count)),
                   op + " mean exact");
    const std::pair<const char*, double> quantiles[] = {
        {"median", 0.5}, {"p95", 0.95}, {"p99", 0.99}};
    for (const auto& [key, q] : quantiles) {
      const double n = static_cast<double>(e.sorted.size() - 1);
      auto at = [&](double rank) {
        rank = std::clamp(rank, 0.0, 1.0);
        return e.sorted[static_cast<std::size_t>(std::llround(rank * n))];
      };
      const double got = s.at(key).as_number();
      checks_.expect(got >= at(q - kQuantileRankBound) * (1 - kPrintedRelError) &&
                         got <= at(q + kQuantileRankBound) * (1 + kPrintedRelError),
                     op + " " + key + " within the rank bound");
    }
  }

  void validate(const std::string& text) {
    eio::json::Value v = eio::json::parse(text);
    check_summary(v.at("write"), write_, "write");
    check_summary(v.at("read"), read_, "read");
    bool named = false;
    bool injected = false;
    const auto& incidents = v.at("monitor").at("incidents").as_array();
    incidents_ = incidents.size();
    for (const eio::json::Value& inc : incidents) {
      const std::string& kind = inc.at("kind").as_string();
      const auto subject = static_cast<std::uint32_t>(inc.at("subject").as_number());
      if (kind == "degraded-ost") {
        named = named || subject == slow_ost_;
        checks_.expect(subject == slow_ost_,
                       "degraded-ost incident names the injected OST");
      }
      if (kind == "injected-ost-degraded") injected = subject == slow_ost_;
    }
    checks_.expect(named, "monitor detects the slow OST");
    checks_.expect(injected, "monitor reports the injected fault");
  }

  const Options& opt_;
  Checks& checks_;
  std::uint32_t slow_ost_;
  fs::path trace_ = opt_.work / "tiled.v3";
  Exact write_, read_;
  std::uint64_t events_ = 0;
  std::uint64_t runs_tiled_ = 0;
  int rc1_ = 0, rc3_ = 0;
  std::string out1_, out3_, reference_;
  std::size_t incidents_ = 0;
  std::vector<OwnedBatch> prefix_;
  std::uint64_t prefix_events_ = 0;
  std::size_t chunks_ = 0;
  double span_ = 0.0;
};

}  // namespace

void run_trace_analyze(const Options& opt, Checks& checks, Result& result) {
  TraceAnalyze w(opt, checks);
  auto& m = result.metrics;
  auto iterate = [&] { w.iterate(); };
  auto check = [&] { w.check(); };

  if (!opt.trace) {
    // The host probe runs on as many threads as the --jobs=3 pass.
    m["setup_s"] = timed_setup(3, 3, [&] { w.setup(); });
    const Samples samples = time_loop(opt.seconds, 3, 3, iterate, check);
    const std::vector<double> walls = samples.ref();
    const double wall = median(walls);
    m["wall_s"] = wall;
    m["wall_tail_s"] = tail(walls);
    m["calls_per_s"] = 2.0 * w.events() / wall;
    m["events_per_s"] = w.events() / median(scaled(w.j1_, samples.scales));
    m["events_per_s_par"] = w.events() / median(scaled(w.j3_, samples.scales));
    m["runs_per_s"] = 2.0 * w.runs_tiled() / wall;
    m["peak_rss_mib"] = samples.peak_mib;
    return;
  }

  w.setup();
  w.load_prefix();
  // The probes scan too, so the traced command's merge time and chunk
  // count are taken as deltas around it: every check and every probe
  // marks the totals, and the traced command's check (obs on) adds
  // what changed since the last mark.
  double merge_s = 0.0, merge_mark = 0.0;
  double chunks = 0.0, chunks_mark = 0.0;
  auto mark = [&](bool attribute) {
    const double merge_now = span_total("scan.merge_partial");
    const auto chunks_now = static_cast<double>(obs_counter("scan.chunks_scanned"));
    if (attribute) {
      merge_s += merge_now - merge_mark;
      chunks += chunks_now - chunks_mark;
    }
    merge_mark = merge_now;
    chunks_mark = chunks_now;
  };
  TracedRounds rounds = traced_rounds(
      opt.seconds, iterate,
      [&] {
        w.check();
        mark(eio::obs::enabled());
      },
      [&] {
        w.probe_layers();
        mark(false);
      });
  std::map<std::string, double> spans = end_trace(opt);

  const auto passes = static_cast<double>(2 * rounds.traced.size());
  const double untraced = median(rounds.untraced);
  m["scan.par_speedup"] = median(w.j1_) / median(w.j3_);
  m["scan.chunks"] = chunks / passes;
  m["core.merge_s"] = merge_s / passes;
  const auto n = static_cast<double>(rounds.probes);
  m["ipm.open_s"] = spans["bench.ipm.open"] / n;
  m["ipm.decode_ev_per_s"] = w.events() * n / spans["bench.ipm.decode"];
  m["ipm.decode_selective_ev_per_s"] =
      w.events() * n / spans["bench.ipm.decode_selective"];
  m["core.fold_ev_per_s"] = w.prefix_events() * n / spans["bench.core.fold"];
  m["monitor.fold_ev_per_s"] =
      w.prefix_events() * n / spans["bench.monitor.fold"];
  m["monitor.incidents"] = static_cast<double>(w.incidents());
  m["ipm.trace_bytes_per_event"] =
      static_cast<double>(fs::file_size(w.trace_path())) / w.events();
  m["obs.overhead_ratio"] = median(rounds.traced) / untraced;
  checks.expect(m["scan.chunks"] == static_cast<double>(w.chunks()),
                "every analyze pass scans every chunk once");
}

}  // namespace perfbench
