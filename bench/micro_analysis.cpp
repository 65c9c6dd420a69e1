// Analysis-path throughput and memory: materialized vs serial
// columnar vs chunk-parallel.
//
// Builds synthetic traces at two sizes (N and 4N events), saves them
// as binary v3, and runs the same analysis bundle — per-op write
// summary (count/median/p95/moments), histogram bins, rate series —
// through each path:
//
//  * materialized: Trace::load + the batch helpers over the full
//    event vector (memory O(N));
//  * batched_v3: the serial columnar API (for_each_columns_hinted),
//    three passes, extrema reused from the summary pass, span from the
//    index;
//  * fused_v3 jN: the whole bundle as ONE KernelSet pass through
//    ParallelTraceScanner with N worker threads — the scan_kernels
//    path every eiotrace subcommand uses.
//
// Separate kernel_* rows run the statistics kernels on an in-memory
// value stream (no decode), isolating per-event kernel cost: the
// historical per-draw Algorithm R reservoir vs the Vitter skip-gap
// sampler (scalar and batched), and scalar vs batched
// StreamingHistogram fills.
//
// Every row runs in a forked child that reports its own VmHWM through
// a pipe: fork resets the child's high-water mark to the current RSS,
// so rows are independent instead of inheriting the largest earlier
// footprint. Parallel speedups are only observable when the host
// grants more than one CPU; hardware_concurrency is recorded in the
// JSON so the numbers are interpretable.
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "core/histogram.h"
#include "core/parallel_analysis.h"
#include "core/rate_series.h"
#include "core/samples.h"
#include "core/streaming.h"
#include "ipm/parallel_scan.h"
#include "ipm/trace.h"
#include "ipm/trace_source.h"
#include "ipm/trace_stream.h"
#include "ipm/trace_v3.h"
#include "monitor/health.h"

namespace {

using namespace eio;

/// Peak resident set (VmHWM) in KiB from /proc/self/status; 0 when
/// unavailable (non-Linux).
long peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  long value = 0;
  while (status >> key) {
    if (key == "VmHWM:") {
      status >> value;
      return value;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Deterministic synthetic v3 trace: a bimodal write population plus
/// a read population, spread over ranks and phases like an IOR run.
void write_synthetic(const std::string& path, std::size_t events) {
  std::ofstream file(path, std::ios::binary);
  ipm::TraceWriterV3 writer(file, "micro-analysis", /*ranks=*/256);
  std::uint64_t state = 0x243F6A8885A308D3ULL;
  auto next_u01 = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) / 9007199254740992.0;
  };
  for (std::size_t i = 0; i < events; ++i) {
    ipm::TraceEvent e;
    bool write = i % 4 != 0;
    double u = next_u01();
    e.op = write ? posix::OpType::kWrite : posix::OpType::kRead;
    // Bimodal: fast path ~0.2s, contended tail ~1.5s.
    e.duration = (u < 0.8 ? 0.2 : 1.5) * (0.75 + 0.5 * next_u01());
    e.start = 600.0 * static_cast<double>(i) / static_cast<double>(events);
    e.rank = static_cast<RankId>(i % 256);
    e.file = 1;
    e.offset = static_cast<Bytes>(i) * (8 << 20);
    e.bytes = 8 << 20;
    e.phase = static_cast<std::int32_t>(i * 8 / events);
    writer.add(e);
  }
  writer.finish();
}

struct PathResult {
  double seconds = 0.0;
  double events_per_sec = 0.0;
  long peak_rss_kib = 0;
  // Cross-checked against the materialized reference: the mean is
  // exact at any stream length; the median is reservoir-sampled beyond
  // 65536 write events, so it is only statistically close at bench
  // sizes.
  double mean = 0.0;
  double median = 0.0;
};

/// Run `fn` in a forked child and collect its PathResult through a
/// pipe. The child's VmHWM starts at the fork point, so each row's
/// peak RSS reflects only its own analysis footprint.
template <typename Fn>
PathResult measure(const Fn& fn) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    close(fds[0]);
    PathResult r = fn();
    r.peak_rss_kib = peak_rss_kib();
    ssize_t wrote = write(fds[1], &r, sizeof r);
    _exit(wrote == static_cast<ssize_t>(sizeof r) ? 0 : 1);
  }
  close(fds[1]);
  PathResult r{};
  ssize_t got = read(fds[0], &r, sizeof r);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != static_cast<ssize_t>(sizeof r) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "measurement child failed\n");
    std::exit(1);
  }
  return r;
}

const analysis::EventFilter kWrites{.op = posix::OpType::kWrite};

PathResult run_materialized(const std::string& path, std::size_t events) {
  double t0 = now_seconds();
  ipm::Trace trace = ipm::Trace::load(path);

  auto d = analysis::durations(trace, kWrites);
  stats::EmpiricalDistribution dist(d);
  stats::Moments moments = stats::compute_moments(d);
  stats::Histogram hist =
      stats::Histogram::from_samples(d, stats::BinScale::kLinear, 40);
  analysis::TimeSeries rates = analysis::aggregate_rate(trace, kWrites, 100);

  PathResult r;
  r.seconds = now_seconds() - t0;
  r.events_per_sec = static_cast<double>(events) / r.seconds;
  r.mean = moments.mean;
  r.median = dist.median();
  if (moments.count == 0 || hist.total() == 0 || rates.values.empty()) {
    std::abort();
  }
  return r;
}

/// The same three-pass bundle through the columnar batch API: each
/// pass names the columns it reads, so a v3 source decodes only those
/// and never materializes TraceEvent rows at all.
PathResult run_batched_columns(const std::string& path, std::size_t events) {
  double t0 = now_seconds();
  ipm::FileTraceSource source(path);
  const ipm::ChunkHint hint = analysis::hint_for(kWrites);

  analysis::SummarySink summary(kWrites);
  source.for_each_columns_hinted(
      hint, summary.required_columns(),
      [&summary](const ipm::ColumnBatch& b) { summary.add_batch(b); });
  const stats::StreamingSummary& s = summary.summary();
  if (s.empty()) std::abort();

  auto range = stats::Histogram::padded_range(s.min(), s.max(),
                                              stats::BinScale::kLinear);
  stats::Histogram hist(stats::BinScale::kLinear, range.lo, range.hi, 40);
  const ipm::ColumnMask hist_mask =
      kWrites.required_columns() | ipm::kColDuration;
  source.for_each_columns_hinted(
      hint, hist_mask, [&hist](const ipm::ColumnBatch& b) {
        for (std::size_t i = 0; i < b.size(); ++i) {
          if (kWrites.matches_at(b, i)) hist.add(b.duration[i]);
        }
      });

  analysis::RateSeriesBuilder rates(source.time_span(), 100);
  const ipm::ColumnMask rate_mask = kWrites.required_columns() |
                                    ipm::kColStart | ipm::kColDuration |
                                    ipm::kColBytes;
  source.for_each_columns_hinted(
      hint, rate_mask, [&rates](const ipm::ColumnBatch& b) {
        for (std::size_t i = 0; i < b.size(); ++i) {
          if (kWrites.matches_at(b, i)) {
            rates.add(b.start[i], b.duration[i], b.bytes[i]);
          }
        }
      });

  PathResult r;
  r.seconds = now_seconds() - t0;
  r.events_per_sec = static_cast<double>(events) / r.seconds;
  r.mean = s.moments().mean;
  r.median = s.median();
  if (hist.total() == 0 || rates.series().values.empty()) std::abort();
  return r;
}

/// Selective columnar analytics: per-rank byte totals, the imbalance
/// question the paper's ensemble view asks of every run. Reads two of
/// the eight columns (rank, bytes): a v3 file touches only those two
/// column streams (both typically run-length-compressed), so the row
/// prices the decode itself with the per-event statistics floor
/// removed. PathResult.mean carries a rank-weighted checksum (exact in
/// doubles at bench scale) and median the event count.
PathResult run_rank_bytes(const std::string& path, std::size_t events) {
  double t0 = now_seconds();
  ipm::FileTraceSource source(path);
  std::vector<std::uint64_t> sums;
  std::uint64_t seen = 0;
  source.for_each_columns(
      ipm::kColRank | ipm::kColBytes, [&](const ipm::ColumnBatch& b) {
        for (std::size_t i = 0; i < b.size(); ++i) {
          RankId rank = b.rank[i];
          if (rank >= sums.size()) sums.resize(std::size_t{rank} + 1, 0);
          sums[rank] += b.bytes[i];
        }
        seen += b.size();
      });

  PathResult r;
  r.seconds = now_seconds() - t0;
  r.events_per_sec = static_cast<double>(events) / r.seconds;
  double checksum = 0.0;
  for (std::size_t rank = 0; rank < sums.size(); ++rank) {
    checksum += static_cast<double>(sums[rank] >> 20) *
                static_cast<double>(rank + 1);
  }
  r.mean = checksum;
  r.median = static_cast<double>(seen);
  if (seen != events || sums.empty()) std::abort();
  return r;
}

/// The fused bundle: summary + histogram + rates folded by ONE
/// KernelSet pass — the trace is decoded once, filters are evaluated
/// once per kernel, and no kernel waits on another pass.
PathResult run_fused(const std::string& path, std::size_t events,
                     std::size_t jobs) {
  double t0 = now_seconds();
  ipm::ParallelTraceScanner scanner(path, {.jobs = jobs});
  const ipm::ChunkHint hint = analysis::hint_for(kWrites);
  const double span = scanner.time_span();

  auto fused = scanner.scan_kernels(
      [&](std::size_t) {
        return analysis::KernelSet(
            analysis::SummarySink(kWrites),
            analysis::HistogramKernel(
                kWrites, {.scale = stats::BinScale::kLinear, .bins = 40}),
            analysis::RateKernel(kWrites, span, 100));
      },
      &hint);
  const stats::StreamingSummary& s = fused.get<0>().summary();
  if (s.empty()) std::abort();

  PathResult r;
  r.seconds = now_seconds() - t0;
  r.events_per_sec = static_cast<double>(events) / r.seconds;
  r.mean = s.moments().mean;
  r.median = s.median();
  if (fused.get<1>().histogram().count() == 0 ||
      fused.get<2>().series().values.empty()) {
    std::abort();
  }
  return r;
}

/// The fused bundle with the online health monitor folded in as a
/// fourth kernel — what `eiotrace analyze --monitor` runs. The hint
/// widens to all-chunks (the monitor must see fault-marker chunks), so
/// the row prices both the kernel itself and the lost chunk pruning;
/// compare against fused_v3_jN for the monitor's relative overhead.
PathResult run_fused_monitored(const std::string& path, std::size_t events,
                               std::size_t jobs) {
  double t0 = now_seconds();
  ipm::ParallelTraceScanner scanner(path, {.jobs = jobs});
  const ipm::ChunkHint hint;  // all chunks: markers must survive
  const double span = scanner.time_span();

  monitor::HealthOptions mopt;
  mopt.ost_count = 48;  // the `analyze --monitor` default (franklin)
  auto fused = scanner.scan_kernels(
      [&](std::size_t chunk) {
        return analysis::KernelSet(
            analysis::SummarySink(kWrites),
            analysis::HistogramKernel(
                kWrites, {.scale = stats::BinScale::kLinear, .bins = 40}),
            analysis::RateKernel(kWrites, span, 100),
            monitor::HealthKernel(mopt, chunk));
      },
      &hint);
  const stats::StreamingSummary& s = fused.get<0>().summary();
  if (s.empty()) std::abort();
  fused.get<3>().finish();

  PathResult r;
  r.seconds = now_seconds() - t0;
  r.events_per_sec = static_cast<double>(events) / r.seconds;
  r.mean = s.moments().mean;
  r.median = s.median();
  if (fused.get<1>().histogram().count() == 0 ||
      fused.get<2>().series().values.empty()) {
    std::abort();
  }
  return r;
}

// ---------------------------------------------------------------------------
// Kernel-cost rows: per-event cost of the statistics kernels in
// isolation (no I/O, no decode), so regressions in the inner loops are
// visible separately from scan plumbing. events_per_sec here is
// values/sec through one kernel.

/// The historical Algorithm R update — one uniform draw per element
/// past capacity — kept as the baseline the skip-gap rows are compared
/// against.
struct PerDrawReservoir {
  std::size_t capacity;
  rng::Stream rng;
  std::vector<double> samples;
  std::uint64_t seen = 0;

  PerDrawReservoir(std::size_t cap, std::uint64_t seed)
      : capacity(cap), rng(seed) {
    samples.reserve(cap);
  }
  void add(double x) {
    ++seen;
    if (samples.size() < capacity) {
      samples.push_back(x);
      return;
    }
    std::uint64_t j = rng.index(seen);
    if (j < capacity) samples[static_cast<std::size_t>(j)] = x;
  }
};

std::vector<double> kernel_input(std::size_t n) {
  std::vector<double> xs(n);
  std::uint64_t state = 0x243F6A8885A308D3ULL;
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    xs[i] = 1e-3 + static_cast<double>(state >> 11) / 9007199254740992.0;
  }
  return xs;
}

template <typename Fn>
PathResult run_kernel(std::size_t n, const Fn& fn) {
  const std::vector<double> xs = kernel_input(n);
  double t0 = now_seconds();
  double checksum = fn(xs);
  PathResult r;
  r.seconds = now_seconds() - t0;
  r.events_per_sec = static_cast<double>(n) / r.seconds;
  r.mean = checksum;
  r.median = checksum;
  return r;
}

PathResult run_kernel_reservoir_per_draw(std::size_t n) {
  return run_kernel(n, [](std::span<const double> xs) {
    PerDrawReservoir r(1024, 42);
    for (double x : xs) r.add(x);
    return r.samples[0];
  });
}

PathResult run_kernel_reservoir_skip_gap(std::size_t n) {
  return run_kernel(n, [](std::span<const double> xs) {
    stats::ReservoirSampler r(1024, 42);
    for (double x : xs) r.add(x);
    return r.samples()[0];
  });
}

PathResult run_kernel_reservoir_skip_gap_batch(std::size_t n) {
  return run_kernel(n, [](std::span<const double> xs) {
    stats::ReservoirSampler r(1024, 42);
    r.add_batch(xs);
    return r.samples()[0];
  });
}

PathResult run_kernel_hist_fill_scalar(std::size_t n) {
  return run_kernel(n, [n](std::span<const double> xs) {
    stats::StreamingHistogram h(
        {.scale = stats::BinScale::kLinear, .bins = 40, .exact_capacity = n});
    for (double x : xs) h.add(x);
    return static_cast<double>(h.count());
  });
}

PathResult run_kernel_hist_fill_batched(std::size_t n) {
  return run_kernel(n, [n](std::span<const double> xs) {
    stats::StreamingHistogram h(
        {.scale = stats::BinScale::kLinear, .bins = 40, .exact_capacity = n});
    h.add_batch(xs);
    return static_cast<double>(h.count());
  });
}

void check_against_reference(const char* path_name, const PathResult& r,
                             const PathResult& ref) {
  if (std::abs(r.mean - ref.mean) > 1e-12 * ref.mean) {
    std::fprintf(stderr, "%s mean mismatch: %.17g vs %.17g\n", path_name,
                 r.mean, ref.mean);
    std::exit(1);
  }
  if (std::abs(r.median - ref.median) > 0.02 * ref.median) {
    std::fprintf(stderr, "%s median diverged: %.17g vs %.17g\n", path_name,
                 r.median, ref.median);
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  eio::bench::ObsFlags obs = eio::bench::obs_flags(argc, argv);
  // --quick: one small size, fewer job counts, small kernel inputs —
  // the CI smoke configuration (same rows, minutes less runtime).
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::size_t base = quick ? 50'000 : 200'000;
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{base}
            : std::vector<std::size_t>{base, 4 * base};
  const std::vector<std::size_t> job_counts =
      quick ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4, 8};
  const std::size_t kernel_n = quick ? 200'000 : 4'000'000;

  std::printf("micro_analysis: analysis-path throughput and memory\n");
  std::printf("%10s %14s %16s %14s\n", "events", "path", "events/sec",
              "peak RSS KiB");

  // A parallel row is only honest when the host can actually run that
  // many workers at once; rows where cores are scarce (the bench
  // process itself takes one, so hardware_concurrency <= jobs already
  // oversubscribes) are annotated instead of being passed off as
  // scaling data, and the printed table skips the speedup claim.
  const std::size_t cores = std::thread::hardware_concurrency();

  struct Row {
    std::size_t events;
    std::string path_name;
    PathResult result;
    bool meaningful = true;
  };
  std::vector<Row> rows;
  auto emit = [&rows](std::size_t events, std::string name, PathResult r,
                      std::size_t jobs = 0) {
    bool meaningful = jobs == 0 || !eio::bench::cores_scarce(jobs);
    std::printf("%10zu %16s %16.0f %14ld%s\n", events, name.c_str(),
                r.events_per_sec, r.peak_rss_kib,
                meaningful ? "" : "  [cores scarce: not scaling data]");
    rows.push_back({events, std::move(name), r, meaningful});
  };

  for (std::size_t events : sizes) {
    std::string path = "micro_analysis_tmp.v3";
    write_synthetic(path, events);

    PathResult materialized =
        measure([&] { return run_materialized(path, events); });
    emit(events, "materialized", materialized);

    PathResult batched_v3 =
        measure([&] { return run_batched_columns(path, events); });
    check_against_reference("batched_v3", batched_v3, materialized);
    emit(events, "batched_v3", batched_v3);

    emit(events, "rank_bytes_v3",
         measure([&] { return run_rank_bytes(path, events); }));

    for (std::size_t jobs : job_counts) {
      PathResult fused_v3 =
          measure([&] { return run_fused(path, events, jobs); });
      std::string fused_v3_name = "fused_v3_j" + std::to_string(jobs);
      check_against_reference(fused_v3_name.c_str(), fused_v3, materialized);
      emit(events, std::move(fused_v3_name), fused_v3, jobs);

      PathResult monitored =
          measure([&] { return run_fused_monitored(path, events, jobs); });
      std::string mon_name = "monitor_overhead_j" + std::to_string(jobs);
      check_against_reference(mon_name.c_str(), monitored, materialized);
      emit(events, std::move(mon_name), monitored, jobs);
    }
    std::remove(path.c_str());
  }

  // Kernel-in-isolation rows (per-event cost, no I/O). The two
  // reservoir rows sharing one seed must agree exactly; so must the
  // two histogram fills.
  PathResult res_per_draw =
      measure([&] { return run_kernel_reservoir_per_draw(kernel_n); });
  emit(kernel_n, "kernel_reservoir_per_draw", res_per_draw);
  PathResult res_skip =
      measure([&] { return run_kernel_reservoir_skip_gap(kernel_n); });
  emit(kernel_n, "kernel_reservoir_skip_gap", res_skip);
  PathResult res_skip_batch =
      measure([&] { return run_kernel_reservoir_skip_gap_batch(kernel_n); });
  emit(kernel_n, "kernel_reservoir_skip_gap_batch", res_skip_batch);
  if (res_skip.mean != res_skip_batch.mean) {
    std::fprintf(stderr, "skip-gap scalar/batch reservoirs disagree\n");
    return 1;
  }
  PathResult hist_scalar =
      measure([&] { return run_kernel_hist_fill_scalar(kernel_n); });
  emit(kernel_n, "kernel_hist_fill_scalar", hist_scalar);
  PathResult hist_batched =
      measure([&] { return run_kernel_hist_fill_batched(kernel_n); });
  emit(kernel_n, "kernel_hist_fill_batched", hist_batched);
  if (hist_scalar.mean != hist_batched.mean) {
    std::fprintf(stderr, "histogram scalar/batch fills disagree\n");
    return 1;
  }

  utsname uts{};
  uname(&uts);
  std::ofstream json("BENCH_analysis.json");
  json << "{\n";
  eio::bench::write_provenance(json);
  json << "  \"benchmark\": \"micro_analysis\",\n"
       << "  \"note\": \"each row measured in a forked child, so "
          "peak_rss_kib is per-path VmHWM, not a shared high-water mark; "
          "rows with meaningful=false ran with scarce cores "
          "(hardware_concurrency <= jobs) and say nothing about scaling; "
          "batched_v3 runs the full summary+histogram+rates bundle "
          "serially (per-event statistics dominate), while "
          "rank_bytes_v3 runs a two-column selective pass where the "
          "decode cost itself is the workload; fused_v3 rows run the "
          "bundle as one KernelSet scan; monitor_overhead rows run the "
          "fused bundle with the online health monitor as a fourth "
          "kernel and an all-chunks hint, so "
          "(fused_v3_jN - monitor_overhead_jN) / fused_v3_jN is the "
          "monitor's relative cost; kernel_* rows time the statistics "
          "kernels alone on an in-memory stream with no decode\",\n"
       << "  \"hardware_concurrency\": " << cores << ",\n";
  eio::bench::write_scaling_note(json, job_counts.back());
  json << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "    {\n"
         << "      \"events\": " << r.events << ",\n"
         << "      \"path\": \"" << r.path_name << "\",\n"
         << "      \"events_per_sec\": " << r.result.events_per_sec << ",\n"
         << "      \"seconds\": " << r.result.seconds << ",\n"
         << "      \"peak_rss_kib\": " << r.result.peak_rss_kib << ",\n"
         << "      \"meaningful\": " << (r.meaningful ? "true" : "false");
    if (!r.meaningful) {
      json << ",\n      \"annotation\": \"cores scarce "
              "(hardware_concurrency <= jobs): not scaling data\"";
    }
    json << "\n    }" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"machine\": \"" << uts.sysname << " " << uts.release << " "
       << uts.machine << "\"\n"
       << "}\n";
  std::printf("[json] BENCH_analysis.json written\n");
  eio::bench::finish_obs(obs);
  return 0;
}
