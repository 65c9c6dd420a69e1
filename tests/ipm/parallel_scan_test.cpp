// ParallelTraceScanner and the chunk-parallel analysis kernels: a
// scan_kernels pass with the kernels the eiotrace commands use must
// agree with the serial streaming path on IOR / MADbench / GCRM seed
// traces — byte-identically for every --jobs value, and exactly (not
// statistically) wherever the underlying kernel merges exactly. Also covers hinted (selective) parallel
// scans, the time-window chunk pre-filter, batch dispatch, and error
// propagation out of the worker pool, and the per-member merge lanes
// (chunk order per lane, the live-partial bound, throwing merges).
#include "ipm/parallel_scan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/parallel_analysis.h"
#include "core/rate_series.h"
#include "core/samples.h"
#include "core/streaming.h"
#include "ipm/trace.h"
#include "ipm/trace_source.h"
#include "ipm/trace_stream.h"
#include "ipm/trace_v3.h"
#include "support/temp_path.h"
#include "workloads/gcrm.h"
#include "workloads/ior.h"
#include "workloads/madbench.h"

namespace eio::analysis {
namespace {

ipm::Trace ior_trace() {
  workloads::IorConfig cfg;
  cfg.tasks = 32;
  cfg.block_size = 4 * MiB;
  cfg.segments = 2;
  cfg.read_back = true;
  return workloads::run_job(
             workloads::make_ior_job(lustre::MachineConfig::franklin(), cfg))
      .trace;
}

ipm::Trace madbench_trace() {
  workloads::MadbenchConfig cfg;
  cfg.tasks = 16;
  cfg.matrix_bytes = 4 * MiB + 300 * KiB;
  cfg.matrices = 2;
  return workloads::run_job(
             workloads::make_madbench_job(lustre::MachineConfig::franklin(), cfg))
      .trace;
}

ipm::Trace gcrm_trace() {
  workloads::GcrmConfig cfg = workloads::GcrmConfig::baseline();
  cfg.tasks = 64;
  cfg.io_tasks = 8;
  cfg.multi_record_vars = 1;
  cfg.records_per_multi = 2;
  return workloads::run_job(
             workloads::make_gcrm_job(lustre::MachineConfig::franklin(), cfg))
      .trace;
}

const std::vector<ipm::Trace>& seed_traces() {
  static const std::vector<ipm::Trace> traces = [] {
    std::vector<ipm::Trace> t;
    t.push_back(ior_trace());
    t.push_back(madbench_trace());
    t.push_back(gcrm_trace());
    return t;
  }();
  return traces;
}

/// Write `t` as an indexed v3 file with a small chunk size, so even
/// the seed traces span many chunks and the scan has real parallelism
/// to get wrong.
std::string write_v3_chunked(const ipm::Trace& t, std::size_t chunk_events,
                             const std::string& tag) {
  std::string path = test::temp_path("eio_pscan_" + tag + "_v3.bin");
  std::ofstream out(path, std::ios::binary);
  ipm::TraceWriterV3 writer(out, t.experiment(), t.ranks(),
                            {.chunk_events = chunk_events});
  for (const ipm::TraceEvent& e : t.events()) writer.add(e);
  writer.finish();
  return path;
}

/// A synthetic trace whose event start times increase monotonically,
/// so consecutive chunks cover disjoint time ranges — the shape that
/// makes time-window chunk skipping observable.
ipm::Trace monotonic_trace(std::size_t events) {
  ipm::Trace t("monotonic", 8);
  for (std::size_t i = 0; i < events; ++i) {
    ipm::TraceEvent e;
    e.start = 0.01 * static_cast<double>(i);
    e.duration = 0.005;
    e.op = i % 3 == 0 ? posix::OpType::kRead : posix::OpType::kWrite;
    e.rank = static_cast<RankId>(i % 8);
    e.file = 1;
    e.bytes = 4096;
    e.phase = static_cast<std::int32_t>(i / 256);
    t.add(e);
  }
  return t;
}

stats::StreamingSummary serial_summary(const ipm::TraceSource& source,
                                       const EventFilter& filter) {
  SummarySink sink(filter);
  source.for_each_columns(
      ipm::kColAll, [&sink](const ipm::ColumnBatch& b) { sink.add_batch(b); });
  return sink.summary();
}

// The kernels behind `eiotrace summary`/`modes`, `phases`, `histogram`
// and `rates`, each run as one scan_kernels pass under the filter's
// chunk hint — the way the commands run them.

stats::StreamingSummary summary_of(const ipm::ParallelTraceScanner& scanner,
                                   const EventFilter& filter) {
  const ipm::ChunkHint hint = hint_for(filter);
  return scanner
      .scan_kernels(
          [&](std::size_t) { return SummarySink(filter); },
          &hint)
      .summary();
}

std::map<std::int32_t, stats::StreamingSummary> phases_of(
    const ipm::ParallelTraceScanner& scanner, const EventFilter& filter) {
  const ipm::ChunkHint hint = hint_for(filter);
  return scanner
      .scan_kernels(
          [&](std::size_t) { return PhaseSummarySink(filter); },
          &hint)
      .by_phase();
}

std::optional<stats::Histogram> histogram_of(
    const ipm::ParallelTraceScanner& scanner, const EventFilter& filter,
    stats::BinScale scale, std::size_t bins) {
  const ipm::ChunkHint hint = hint_for(filter);
  return scanner
      .scan_kernels(
          [&](std::size_t) {
            return HistogramKernel(filter, {.scale = scale, .bins = bins});
          },
          &hint)
      .histogram()
      .materialize();
}

TimeSeries rate_of(const ipm::ParallelTraceScanner& scanner,
                   const EventFilter& filter, std::size_t bins) {
  const double span = scanner.time_span();
  const ipm::ChunkHint hint = hint_for(filter);
  return scanner
      .scan_kernels(
          [&](std::size_t) { return RateKernel(filter, span, bins); }, &hint)
      .series();
}

TEST(ParallelScanTest, ScannerRejectsNonV3Files) {
  // A retired v2 file is rejected by its magic alone.
  const std::string v2 = test::temp_path("eio_pscan_retired.v2");
  std::ofstream(v2, std::ios::binary) << "IPMIOB2\njunk after the magic";
  EXPECT_THROW(ipm::ParallelTraceScanner scanner(v2), std::runtime_error);
  std::remove(v2.c_str());

  EXPECT_THROW(ipm::ParallelTraceScanner scanner(
                   test::temp_path("eio_pscan_missing.v3")),
               std::runtime_error);
}

TEST(ParallelScanTest, TsvScanMatchesV3ForEveryJobsValue) {
  // A TSV path scans chunk-parallel, 4,096 rows per chunk, like the v3
  // file holding the same values (the TSV read back, so both hold its
  // 9-digit doubles): the same merged summary, histogram and rates at
  // any jobs value.
  constexpr std::size_t kEvents = 5 * ipm::TraceSource::kDefaultBatchEvents + 123;
  ipm::Trace t("tsv-chunks", 8);
  for (std::size_t i = 0; i < kEvents; ++i) {
    ipm::TraceEvent e;
    e.start = 0.01 * static_cast<double>(i);
    e.duration = 1e-3 * static_cast<double>(1 + (i * 7919) % 1000);
    e.op = i % 3 == 0 ? posix::OpType::kRead : posix::OpType::kWrite;
    e.rank = static_cast<RankId>(i % 8);
    e.file = 1;
    e.offset = static_cast<Bytes>(i) * 4096;
    e.bytes = 4096 * (1 + i % 4);
    e.phase = static_cast<std::int32_t>(i / 5000);
    t.add(e);
  }
  const std::string tsv = test::temp_path("eio_pscan_chunked.tsv");
  const std::string v3 = test::temp_path("eio_pscan_chunked_twin.v3");
  t.save(tsv);
  ipm::Trace::load(tsv).save_binary_v3(v3);

  const EventFilter writes{.op = posix::OpType::kWrite};
  ipm::ParallelTraceScanner reference(v3, {.jobs = 1});
  ASSERT_GT(reference.index().chunks.size(), 4u);
  const stats::StreamingSummary base = summary_of(reference, writes);
  const auto base_hist =
      histogram_of(reference, writes, stats::BinScale::kLog10, 40);
  const TimeSeries base_rate = rate_of(reference, writes, 64);
  ASSERT_TRUE(base_hist.has_value());

  for (std::size_t jobs : {1, 4}) {
    ipm::ParallelTraceScanner scanner(tsv, {.jobs = jobs});
    ASSERT_EQ(scanner.index().chunks.size(), reference.index().chunks.size());
    EXPECT_EQ(scanner.time_span(), reference.time_span());
    const stats::StreamingSummary s = summary_of(scanner, writes);
    EXPECT_EQ(s.count(), base.count()) << "jobs " << jobs;
    EXPECT_EQ(s.moments().mean, base.moments().mean) << "jobs " << jobs;
    EXPECT_EQ(s.moments().variance, base.moments().variance);
    EXPECT_EQ(s.reservoir().samples(), base.reservoir().samples());

    const auto h = histogram_of(scanner, writes, stats::BinScale::kLog10, 40);
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->counts(), base_hist->counts()) << "jobs " << jobs;
    EXPECT_EQ(h->lo(), base_hist->lo());
    EXPECT_EQ(h->hi(), base_hist->hi());

    const TimeSeries r = rate_of(scanner, writes, 64);
    EXPECT_EQ(r.t0, base_rate.t0);
    EXPECT_EQ(r.dt, base_rate.dt);
    EXPECT_EQ(r.values, base_rate.values) << "jobs " << jobs;
  }
  std::remove(tsv.c_str());
  std::remove(v3.c_str());
}

TEST(ParallelScanTest, ChunkHintAdmitsTimeWindows) {
  ipm::ChunkMeta chunk;
  chunk.t_lo = 2.0;
  chunk.t_hi = 3.0;
  const auto admits = [&chunk](const ipm::ChunkHint& hint) {
    return hint.admits(chunk);
  };
  EXPECT_TRUE(admits({}));
  EXPECT_TRUE(admits({.t_lo = 2.5}));
  EXPECT_TRUE(admits({.t_hi = 2.5}));
  EXPECT_TRUE(admits({.t_lo = 1.0, .t_hi = 2.0}));
  EXPECT_TRUE(admits({.t_lo = 3.0, .t_hi = 9.0}));
  EXPECT_FALSE(admits({.t_hi = 1.9}));
  EXPECT_FALSE(admits({.t_lo = 3.1}));
  EXPECT_FALSE(admits({.t_lo = 0.0, .t_hi = 1.0}));
}

TEST(ParallelScanTest, SummaryMatchesSerialStreamingOnSeedTraces) {
  for (const ipm::Trace& t : seed_traces()) {
    const std::string path = write_v3_chunked(t, 64, t.experiment());
    ipm::FileTraceSource source(path);
    const stats::StreamingSummary serial = serial_summary(source, {});

    ipm::ParallelTraceScanner scanner(path, {.jobs = 4});
    ASSERT_GT(scanner.index().chunks.size(), 4u) << t.experiment();
    const stats::StreamingSummary scanned = summary_of(scanner, {});

    EXPECT_EQ(scanned.count(), serial.count()) << t.experiment();
    EXPECT_DOUBLE_EQ(scanned.min(), serial.min());
    EXPECT_DOUBLE_EQ(scanned.max(), serial.max());
    const stats::Moments a = serial.moments();
    const stats::Moments b = scanned.moments();
    EXPECT_NEAR(b.mean, a.mean, 1e-12 * std::abs(a.mean));
    EXPECT_NEAR(b.variance, a.variance, 1e-9 * std::abs(a.variance));
    // Chunk partials are exact (64 events << capacity) and merge in
    // stream order, so the merged reservoir holds the full stream —
    // identical to the serial sink's, and order statistics are exact.
    ASSERT_TRUE(scanned.reservoir().exact());
    EXPECT_EQ(scanned.reservoir().samples(), serial.reservoir().samples())
        << t.experiment();
    for (double q : {0.25, 0.5, 0.95}) {
      EXPECT_DOUBLE_EQ(scanned.quantile(q), serial.quantile(q))
          << t.experiment() << " q=" << q;
    }
    std::remove(path.c_str());
  }
}

TEST(ParallelScanTest, ScanIsByteIdenticalForEveryJobsValue) {
  const ipm::Trace t = gcrm_trace();
  const std::string path = write_v3_chunked(t, 64, "jobs_invariance");
  const EventFilter writes{.op = posix::OpType::kWrite};

  ipm::ParallelTraceScanner reference(path, {.jobs = 1});
  const stats::StreamingSummary base = summary_of(reference, writes);
  const auto base_hist =
      histogram_of(reference, writes, stats::BinScale::kLog10, 40);
  const TimeSeries base_rate = rate_of(reference, writes, 64);
  const auto base_phases = phases_of(reference, {});
  ASSERT_TRUE(base_hist.has_value());

  // A deliberately tight merge window exercises the worker throttle.
  for (ipm::ScanOptions opt :
       {ipm::ScanOptions{.jobs = 2}, ipm::ScanOptions{.jobs = 4},
        ipm::ScanOptions{.jobs = 4, .merge_window = 2}}) {
    ipm::ParallelTraceScanner scanner(path, opt);
    const stats::StreamingSummary s = summary_of(scanner, writes);
    EXPECT_EQ(s.count(), base.count());
    EXPECT_EQ(s.reservoir().samples(), base.reservoir().samples());
    EXPECT_EQ(s.moments().mean, base.moments().mean);
    EXPECT_EQ(s.moments().variance, base.moments().variance);

    const auto h = histogram_of(scanner, writes, stats::BinScale::kLog10, 40);
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->counts(), base_hist->counts());
    EXPECT_EQ(h->lo(), base_hist->lo());
    EXPECT_EQ(h->hi(), base_hist->hi());

    const TimeSeries r = rate_of(scanner, writes, 64);
    EXPECT_EQ(r.t0, base_rate.t0);
    EXPECT_EQ(r.dt, base_rate.dt);
    EXPECT_EQ(r.values, base_rate.values);

    const auto phases = phases_of(scanner, {});
    ASSERT_EQ(phases.size(), base_phases.size());
    for (const auto& [phase, summary] : base_phases) {
      auto it = phases.find(phase);
      ASSERT_NE(it, phases.end());
      EXPECT_EQ(it->second.count(), summary.count());
      EXPECT_EQ(it->second.reservoir().samples(),
                summary.reservoir().samples());
    }
  }
  std::remove(path.c_str());
}

TEST(ParallelScanTest, HintedScanMatchesSerialFilteredStream) {
  const ipm::Trace t = madbench_trace();
  const std::string path = write_v3_chunked(t, 64, "hinted");
  ipm::FileTraceSource source(path);
  ipm::ParallelTraceScanner scanner(path, {.jobs = 4});

  std::vector<EventFilter> filters;
  filters.push_back({.op = posix::OpType::kWrite});
  filters.push_back({.op = posix::OpType::kRead});
  const auto& phases = scanner.index().chunks;
  filters.push_back({.phase = phases[phases.size() / 2].phase_lo});
  const double span = scanner.time_span();
  filters.push_back({.t_lo = 0.25 * span, .t_hi = 0.5 * span});
  filters.push_back({.op = posix::OpType::kWrite, .t_hi = 0.75 * span});

  for (const EventFilter& f : filters) {
    const stats::StreamingSummary serial = serial_summary(source, f);
    const stats::StreamingSummary scanned = summary_of(scanner, f);
    ASSERT_EQ(scanned.count(), serial.count());
    if (serial.count() == 0) continue;
    EXPECT_DOUBLE_EQ(scanned.min(), serial.min());
    EXPECT_DOUBLE_EQ(scanned.max(), serial.max());
    EXPECT_EQ(scanned.reservoir().samples(), serial.reservoir().samples());
  }
  std::remove(path.c_str());
}

TEST(ParallelScanTest, TimeWindowHintSkipsChunksWithoutChangingResults) {
  const ipm::Trace t = monotonic_trace(2048);
  const std::string path = write_v3_chunked(t, 128, "window");
  ipm::FileTraceSource source(path);
  ipm::ParallelTraceScanner scanner(path, {.jobs = 4});
  const double span = scanner.time_span();

  // Monotonic starts make chunk time ranges disjoint, so a quarter-span
  // window must prove most chunks unmatchable.
  const EventFilter window{.t_lo = 0.40 * span, .t_hi = 0.60 * span};
  const ipm::ChunkHint hint = hint_for(window);
  std::size_t admitted = 0;
  for (const ipm::ChunkMeta& c : scanner.index().chunks) {
    admitted += hint.admits(c) ? 1 : 0;
  }
  ASSERT_GT(admitted, 0u);
  EXPECT_LT(admitted, scanner.index().chunks.size() / 2);

  const stats::StreamingSummary serial = serial_summary(source, window);
  const stats::StreamingSummary scanned = summary_of(scanner, window);
  ASSERT_GT(serial.count(), 0u);
  EXPECT_EQ(scanned.count(), serial.count());
  EXPECT_EQ(scanned.reservoir().samples(), serial.reservoir().samples());

  // A window entirely past the trace admits nothing and yields the
  // empty summary on both paths.
  const EventFilter beyond{.t_lo = span + 1.0};
  EXPECT_EQ(summary_of(scanner, beyond).count(), 0u);
  EXPECT_EQ(serial_summary(source, beyond).count(), 0u);
  std::remove(path.c_str());
}

TEST(ParallelScanTest, HistogramMatchesBatchBinning) {
  for (const ipm::Trace& t : seed_traces()) {
    const std::string path = write_v3_chunked(t, 64, t.experiment() + "_hist");
    ipm::ParallelTraceScanner scanner(path, {.jobs = 4});
    const EventFilter writes{.op = posix::OpType::kWrite};
    const auto d = durations(t, writes);
    ASSERT_FALSE(d.empty()) << t.experiment();

    for (stats::BinScale scale :
         {stats::BinScale::kLinear, stats::BinScale::kLog10}) {
      const stats::Histogram batch =
          stats::Histogram::from_samples(d, scale, 40);
      const auto scanned = histogram_of(scanner, writes, scale, 40);
      ASSERT_TRUE(scanned.has_value()) << t.experiment();
      EXPECT_DOUBLE_EQ(scanned->lo(), batch.lo()) << t.experiment();
      EXPECT_DOUBLE_EQ(scanned->hi(), batch.hi()) << t.experiment();
      EXPECT_EQ(scanned->counts(), batch.counts()) << t.experiment();
      EXPECT_EQ(scanned->underflow(), batch.underflow());
      EXPECT_EQ(scanned->overflow(), batch.overflow());
    }

    // Nothing matches: the scan reports "no histogram", not a crash.
    EXPECT_FALSE(
        histogram_of(scanner, {.rank = 99999}, stats::BinScale::kLinear, 40)
            .has_value());
    std::remove(path.c_str());
  }
}

TEST(ParallelScanTest, RateSeriesMatchesSerialAggregate) {
  for (const ipm::Trace& t : seed_traces()) {
    const std::string path = write_v3_chunked(t, 64, t.experiment() + "_rate");
    ipm::FileTraceSource source(path);
    ipm::ParallelTraceScanner scanner(path, {.jobs = 4});
    const EventFilter writes{.op = posix::OpType::kWrite};

    const TimeSeries serial = aggregate_rate(source, writes, 64);
    const TimeSeries scanned = rate_of(scanner, writes, 64);
    EXPECT_DOUBLE_EQ(scanned.t0, serial.t0);
    EXPECT_DOUBLE_EQ(scanned.dt, serial.dt);
    ASSERT_EQ(scanned.values.size(), serial.values.size());
    for (std::size_t i = 0; i < serial.values.size(); ++i) {
      EXPECT_NEAR(scanned.values[i], serial.values[i],
                  1e-9 * std::max(std::abs(serial.values[i]), 1.0))
          << t.experiment() << " bin " << i;
    }
    std::remove(path.c_str());
  }
}

TEST(ParallelScanTest, PhaseSummariesMatchSerialSink) {
  for (const ipm::Trace& t : seed_traces()) {
    const std::string path = write_v3_chunked(t, 64, t.experiment() + "_phase");
    ipm::FileTraceSource source(path);
    ipm::ParallelTraceScanner scanner(path, {.jobs = 4});

    PhaseSummarySink serial{{}};
    source.for_each_columns(ipm::kColAll, [&serial](const ipm::ColumnBatch& b) {
      serial.add_batch(b);
    });
    const auto scanned = phases_of(scanner, {});

    ASSERT_EQ(scanned.size(), serial.by_phase().size()) << t.experiment();
    for (const auto& [phase, s] : serial.by_phase()) {
      auto it = scanned.find(phase);
      ASSERT_NE(it, scanned.end()) << t.experiment();
      EXPECT_EQ(it->second.count(), s.count());
      EXPECT_EQ(it->second.reservoir().samples(), s.reservoir().samples())
          << t.experiment() << " phase " << phase;
      EXPECT_DOUBLE_EQ(it->second.median(), s.median());
    }
    std::remove(path.c_str());
  }
}

TEST(ParallelScanTest, BatchDispatchConcatenatesToEventOrder) {
  const ipm::Trace t = monotonic_trace(1000);
  const std::string path = write_v3_chunked(t, 128, "batch_dispatch");
  ipm::FileTraceSource source(path);

  std::vector<double> per_event;
  for (const ipm::TraceEvent& e : t.events()) per_event.push_back(e.start);

  std::vector<double> batched;
  std::size_t batches = 0;
  source.for_each_columns(ipm::kColStart, [&](const ipm::ColumnBatch& b) {
    ++batches;
    batched.insert(batched.end(), b.start.begin(), b.start.end());
  });
  EXPECT_EQ(batched, per_event);
  EXPECT_GT(batches, 1u);  // one batch per v3 chunk

  // An in-memory trace shreds its rows, in order, at most
  // kDefaultBatchEvents per batch, into the masked columns only.
  constexpr std::size_t kBatch = ipm::TraceSource::kDefaultBatchEvents;
  const ipm::Trace big = monotonic_trace(2 * kBatch + 17);
  std::vector<std::size_t> sizes;
  std::vector<double> starts;
  big.for_each_columns(ipm::kColStart, [&](const ipm::ColumnBatch& b) {
    sizes.push_back(b.size());
    EXPECT_TRUE(b.rank.empty());
    starts.insert(starts.end(), b.start.begin(), b.start.end());
  });
  EXPECT_EQ(sizes, (std::vector<std::size_t>{kBatch, kBatch, 17}));
  ASSERT_EQ(starts.size(), big.size());
  for (std::size_t i = 0; i < big.size(); ++i) {
    EXPECT_EQ(starts[i], big.events()[i].start);
  }
  std::remove(path.c_str());
}

TEST(ParallelScanTest, V3ScanIsByteIdenticalForEveryJobsValue) {
  const ipm::Trace t = gcrm_trace();
  const std::string path = write_v3_chunked(t, 64, "jobs_invariance");
  const EventFilter writes{.op = posix::OpType::kWrite};

  ipm::ParallelTraceScanner reference(path, {.jobs = 1});
  const stats::StreamingSummary base = summary_of(reference, writes);
  for (ipm::ScanOptions opt :
       {ipm::ScanOptions{.jobs = 2}, ipm::ScanOptions{.jobs = 4},
        ipm::ScanOptions{.jobs = 4, .merge_window = 2}}) {
    ipm::ParallelTraceScanner scanner(path, opt);
    const stats::StreamingSummary s = summary_of(scanner, writes);
    EXPECT_EQ(s.count(), base.count());
    EXPECT_EQ(s.reservoir().samples(), base.reservoir().samples());
    EXPECT_EQ(s.moments().mean, base.moments().mean);
  }
  std::remove(path.c_str());
}

TEST(ParallelScanTest, ScanColumnsDecodesOnlyTheMaskedColumns) {
  const ipm::Trace t = monotonic_trace(1500);
  const std::string path = write_v3_chunked(t, 128, "cols");
  ipm::ParallelTraceScanner scanner(path, {.jobs = 4});

  struct Acc {
    double sum = 0.0;
    std::uint64_t n = 0;
  };
  // The columnar fold reads only the start column — nothing else is
  // even decoded — and must fold the same sequence as a serial pass.
  const Acc cols = scanner.scan_columns(
      [](std::size_t) { return Acc{}; },
      [](Acc& a, const ipm::ColumnBatch& batch) {
        EXPECT_EQ(batch.start.size(), batch.size());
        EXPECT_TRUE(batch.rank.empty());  // unmasked: never decoded
        for (double s : batch.start) {
          a.sum += s;
          ++a.n;
        }
      },
      [](Acc& a, Acc&& b) {
        a.sum += b.sum;
        a.n += b.n;
      },
      nullptr, ipm::kColStart);
  // Each 128-event chunk folds from zero and partials add in chunk
  // order, so the serial reference sums chunk by chunk the same way.
  double rows = 0.0;
  for (std::size_t lo = 0; lo < t.size(); lo += 128) {
    double chunk = 0.0;
    for (std::size_t i = lo; i < std::min(lo + 128, t.size()); ++i) {
      chunk += t.events()[i].start;
    }
    rows += chunk;
  }
  EXPECT_EQ(cols.n, t.size());
  EXPECT_EQ(cols.sum, rows);
  std::remove(path.c_str());
}

TEST(ParallelScanTest, ChunkReaderChunksMatchTheWrittenTrace) {
  // Chunks read out of order, short last chunk first, so the reused
  // read buffer changes size between decodes.
  const ipm::Trace& t = seed_traces()[0];
  constexpr std::size_t kChunk = 128;
  const std::string path = write_v3_chunked(t, kChunk, "reader");
  const ipm::FileTraceSource source(path);
  const ipm::TraceIndex& index = source.index();
  ASSERT_GT(index.chunks.size(), 2u);

  ipm::ChunkCursor cursor;
  for (std::size_t c = index.chunks.size(); c-- > 0;) {
    const ipm::ColumnBatch b = source.decode_chunk(c, ipm::kColAll, cursor);
    const std::size_t lo = c * kChunk;
    ASSERT_EQ(b.size(), std::min(kChunk, t.size() - lo)) << "chunk " << c;
    for (std::size_t i = 0; i < b.size(); ++i) {
      const ipm::TraceEvent& e = t.events()[lo + i];
      EXPECT_EQ(b.start[i], e.start);
      EXPECT_EQ(b.duration[i], e.duration);
      EXPECT_EQ(b.op[i], static_cast<std::uint8_t>(e.op));
      EXPECT_EQ(b.rank[i], e.rank);
      EXPECT_EQ(b.file[i], e.file);
      EXPECT_EQ(b.offset[i], e.offset);
      EXPECT_EQ(b.bytes[i], e.bytes);
      EXPECT_EQ(b.phase[i], e.phase);
    }
  }
  std::remove(path.c_str());
}

TEST(ParallelScanTest, ScannerRejectsAMalformedTsvRowOnOpen) {
  // Opening a TSV indexes it, which parses every row: a malformed last
  // row fails the open, before any scan.
  const std::string path = test::temp_path("eio_pscan_bad_row.tsv");
  monotonic_trace(100).save(path);
  std::ofstream(path, std::ios::app) << "garbage row here\n";
  EXPECT_THROW(ipm::FileTraceSource source(path), std::runtime_error);
  try {
    ipm::ParallelTraceScanner scanner(path);
    ADD_FAILURE() << "a malformed TSV was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "malformed trace row: garbage row here");
  }
  std::remove(path.c_str());
}

/// Run `pass` and expect it to throw a runtime_error naming `what`.
template <typename Pass>
void expect_truncated(const Pass& pass, const std::string& what) {
  try {
    pass();
    ADD_FAILURE() << "a truncated trace scanned as complete";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

TEST(TruncatedTraceTest, TruncationUnderAnOpenSourceThrows) {
  // The index is read while the file is whole; every later read of a
  // chunk past the cut must throw, serially and from the worker pool.
  const std::string path = write_v3_chunked(seed_traces()[0], 64, "truncated");
  const ipm::FileTraceSource source(path);
  ASSERT_GT(source.index().chunks.size(), 4u);
  ASSERT_GT(std::filesystem::file_size(path), 4096u);
  std::filesystem::resize_file(path, 4096);

  expect_truncated(
      [&] {
        source.for_each_columns(ipm::kColAll, [](const ipm::ColumnBatch&) {});
      },
      "truncated v3 trace");
  expect_truncated(
      [&] {
        (void)summary_of(ipm::ParallelTraceScanner(source, {.jobs = 3}),
                         EventFilter{});
      },
      "truncated v3 trace");
  std::remove(path.c_str());
}

TEST(TruncatedTraceTest, TsvTruncationUnderAnOpenSourceThrows) {
  // A TSV is indexed while whole; a chunk read past the cut throws,
  // serially and from the worker pool, instead of yielding fewer rows.
  const std::string path = test::temp_path("eio_pscan_truncated.tsv");
  monotonic_trace(5 * ipm::TraceSource::kDefaultBatchEvents).save(path);
  const ipm::FileTraceSource source(path);
  ASSERT_GT(source.index().chunks.size(), 4u);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);

  expect_truncated(
      [&] {
        source.for_each_columns(ipm::kColAll, [](const ipm::ColumnBatch&) {});
      },
      "truncated TSV trace");
  expect_truncated(
      [&] {
        (void)summary_of(ipm::ParallelTraceScanner(source, {.jobs = 3}),
                         EventFilter{});
      },
      "truncated TSV trace");
  std::remove(path.c_str());
}

TEST(ParallelScanTest, ChunkHintUnionWidensSoundly) {
  const ipm::ChunkHint writes{.op = posix::OpType::kWrite};
  const ipm::ChunkHint reads{.op = posix::OpType::kRead};
  const ipm::ChunkHint u = ipm::ChunkHint::union_of(writes, reads);
  EXPECT_FALSE(u.op.has_value());
  EXPECT_EQ(u.op_mask,
            (1u << static_cast<unsigned>(posix::OpType::kRead)) |
                (1u << static_cast<unsigned>(posix::OpType::kWrite)));

  ipm::ChunkMeta read_only;
  read_only.op_mask = 1u << static_cast<unsigned>(posix::OpType::kRead);
  ipm::ChunkMeta seek_only;
  seek_only.op_mask = 1u << static_cast<unsigned>(posix::OpType::kSeek);
  EXPECT_TRUE(u.admits(read_only));
  EXPECT_FALSE(u.admits(seek_only));

  // An unconstrained side erases the op constraint entirely (widening
  // is the only sound direction for a superset promise).
  EXPECT_EQ(ipm::ChunkHint::union_of(writes, {}).effective_op_mask(), 0u);

  // Time windows union to the envelope; a missing bound drops it.
  const ipm::ChunkHint w1{.t_lo = 1.0, .t_hi = 2.0};
  const ipm::ChunkHint w2{.t_lo = 5.0, .t_hi = 9.0};
  const ipm::ChunkHint uw = ipm::ChunkHint::union_of(w1, w2);
  EXPECT_EQ(uw.t_lo, 1.0);
  EXPECT_EQ(uw.t_hi, 9.0);
  EXPECT_FALSE(ipm::ChunkHint::union_of(w1, {}).t_lo.has_value());
}

TEST(ParallelScanTest, FusedKernelSetMatchesIndividualScans) {
  // One scan_kernels pass over a KernelSet must produce exactly what
  // the per-kernel scans produce — same reservoir draws, same bins,
  // same rate sums.
  for (const ipm::Trace& t : seed_traces()) {
    const std::string path = write_v3_chunked(t, 64, t.experiment() + "_fused");
    ipm::ParallelTraceScanner scanner(path, {.jobs = 4});
    const EventFilter writes{.op = posix::OpType::kWrite};
    const EventFilter reads{.op = posix::OpType::kRead};
    const double span = scanner.time_span();

    const stats::StreamingSummary sw = summary_of(scanner, writes);
    const stats::StreamingSummary sr = summary_of(scanner, reads);
    const auto hist =
        histogram_of(scanner, writes, stats::BinScale::kLog10, 40);
    const TimeSeries rate = rate_of(scanner, writes, 64);
    ASSERT_TRUE(hist.has_value()) << t.experiment();

    const ipm::ChunkHint hint =
        ipm::ChunkHint::union_of(hint_for(writes), hint_for(reads));
    auto fused = scanner.scan_kernels(
        [&](std::size_t) {
          return KernelSet(
              SummarySink(writes), SummarySink(reads),
              HistogramKernel(writes,
                              {.scale = stats::BinScale::kLog10, .bins = 40}),
              RateKernel(writes, span, 64));
        },
        &hint);

    const stats::StreamingSummary& fw = fused.get<0>().summary();
    EXPECT_EQ(fw.count(), sw.count()) << t.experiment();
    EXPECT_EQ(fw.moments().mean, sw.moments().mean);
    EXPECT_EQ(fw.moments().variance, sw.moments().variance);
    EXPECT_EQ(fw.reservoir().samples(), sw.reservoir().samples());

    const stats::StreamingSummary& fr = fused.get<1>().summary();
    EXPECT_EQ(fr.count(), sr.count()) << t.experiment();
    EXPECT_EQ(fr.reservoir().samples(), sr.reservoir().samples());

    const auto fh = fused.get<2>().histogram().materialize();
    ASSERT_TRUE(fh.has_value());
    EXPECT_EQ(fh->counts(), hist->counts()) << t.experiment();
    EXPECT_EQ(fh->lo(), hist->lo());
    EXPECT_EQ(fh->hi(), hist->hi());

    const TimeSeries& fr8 = fused.get<3>().series();
    EXPECT_EQ(fr8.t0, rate.t0);
    EXPECT_EQ(fr8.dt, rate.dt);
    EXPECT_EQ(fr8.values, rate.values) << t.experiment();
    std::remove(path.c_str());
  }
}

TEST(ParallelScanTest, FusedKernelSetIsJobsInvariant) {
  const ipm::Trace t = gcrm_trace();
  const std::string path = write_v3_chunked(t, 64, "fused_jobs");
  const EventFilter writes{.op = posix::OpType::kWrite};

  auto run = [&](ipm::ScanOptions opt) {
    ipm::ParallelTraceScanner scanner(path, opt);
    const double span = scanner.time_span();
    const ipm::ChunkHint hint = hint_for(writes);
    return scanner.scan_kernels(
        [&](std::size_t) {
          return KernelSet(
              SummarySink(writes), HistogramKernel(writes, {.bins = 40}),
              RateKernel(writes, span, 64));
        },
        &hint);
  };
  auto base = run({.jobs = 1});
  for (ipm::ScanOptions opt :
       {ipm::ScanOptions{.jobs = 2}, ipm::ScanOptions{.jobs = 4},
        ipm::ScanOptions{.jobs = 4, .merge_window = 2}}) {
    auto got = run(opt);
    EXPECT_EQ(got.get<0>().summary().reservoir().samples(),
              base.get<0>().summary().reservoir().samples());
    EXPECT_EQ(got.get<0>().summary().moments().mean,
              base.get<0>().summary().moments().mean);
    const auto hb = base.get<1>().histogram().materialize();
    const auto hg = got.get<1>().histogram().materialize();
    ASSERT_TRUE(hb && hg);
    EXPECT_EQ(hg->counts(), hb->counts());
    EXPECT_EQ(got.get<2>().series().values, base.get<2>().series().values);
  }
  std::remove(path.c_str());
}

/// Live-partial accounting for the lane tests: a kernel holding a
/// token counts as live until it is destroyed (a moved-from kernel has
/// handed its token on).
struct LiveCount {
  std::atomic<int> live{0};
  std::atomic<int> peak{0};
};

class LiveToken {
 public:
  explicit LiveToken(LiveCount* count) : count_(count) {
    if (count_ == nullptr) return;
    const int now = ++count_->live;
    int peak = count_->peak.load();
    while (now > peak && !count_->peak.compare_exchange_weak(peak, now)) {
    }
  }
  LiveToken(LiveToken&& other) noexcept
      : count_(std::exchange(other.count_, nullptr)) {}
  LiveToken& operator=(LiveToken&& other) noexcept {
    release();
    count_ = std::exchange(other.count_, nullptr);
    return *this;
  }
  LiveToken(const LiveToken&) = delete;
  LiveToken& operator=(const LiveToken&) = delete;
  ~LiveToken() { release(); }

 private:
  void release() {
    if (count_ != nullptr) --count_->live;
    count_ = nullptr;
  }
  LiveCount* count_;
};

/// A kernel that records the chunk order of the partials merged into
/// it. `delay` makes every merge slow; `throw_at` makes the merge of
/// that chunk's partial throw.
class OrderKernel {
 public:
  OrderKernel(std::size_t chunk, std::chrono::microseconds delay,
              LiveCount* live = nullptr,
              std::size_t throw_at = static_cast<std::size_t>(-1))
      : order_{chunk}, delay_(delay), throw_at_(throw_at), token_(live) {}

  void add(const ipm::TraceEvent&) {}
  void add_batch(const ipm::ColumnBatch&) {}
  void merge(OrderKernel&& rhs) {
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    if (rhs.order_.front() == throw_at_) {
      throw std::runtime_error("member merge failed");
    }
    order_.insert(order_.end(), rhs.order_.begin(), rhs.order_.end());
  }
  [[nodiscard]] ipm::ColumnMask required_columns() const noexcept {
    return ipm::kColStart;
  }
  [[nodiscard]] const std::vector<std::size_t>& order() const noexcept {
    return order_;
  }

 private:
  std::vector<std::size_t> order_;
  std::chrono::microseconds delay_;
  std::size_t throw_at_;
  LiveToken token_;
};

TEST(ParallelScanTest, MergeLanesSeeChunkOrderAndStayWithinTheWindow) {
  // One deliberately slow member beside a fast one: each lane must
  // still merge chunks 0..n-1 strictly in order, and the throttle must
  // follow the slow lane so live partials stay bounded.
  const ipm::Trace t = monotonic_trace(2000);
  const std::string path = write_v3_chunked(t, 32, "lanes");
  std::vector<std::size_t> all(
      ipm::ParallelTraceScanner(path).index().chunks.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  ASSERT_GT(all.size(), 50u);
  for (std::size_t jobs : {1u, 2u, 3u, 4u, 8u}) {
    for (std::size_t window : {1u, 2u, 0u}) {
      LiveCount live;
      ipm::ParallelTraceScanner scanner(path,
                                        {.jobs = jobs, .merge_window = window});
      auto merged = scanner.scan_kernels([&](std::size_t chunk) {
        return KernelSet(
            OrderKernel(chunk, std::chrono::microseconds(200), &live),
            OrderKernel(chunk, std::chrono::microseconds(0)));
      });
      EXPECT_EQ(merged.get<0>().order(), all) << jobs << "/" << window;
      EXPECT_EQ(merged.get<1>().order(), all) << jobs << "/" << window;
      // The window plus the result (within jobs + window for any jobs).
      const std::size_t w =
          window > 0 ? window : std::max<std::size_t>(2 * jobs, 8);
      EXPECT_LE(static_cast<std::size_t>(live.peak.load()), w + 1)
          << jobs << "/" << window;
    }
  }
  std::remove(path.c_str());
}

TEST(ParallelScanTest, WorkerExceptionsPropagateToCaller) {
  const ipm::Trace t = monotonic_trace(1000);
  const std::string path = write_v3_chunked(t, 64, "error_path");
  ipm::ParallelTraceScanner scanner(path, {.jobs = 4});
  EXPECT_THROW(
      {
        (void)scanner.scan_columns(
            [](std::size_t) { return 0; },
            [](int&, const ipm::ColumnBatch& batch) {
              if (batch.start.front() > 1.0) {
                throw std::runtime_error("fold failed");
              }
            },
            [](int& a, int&& b) { a += b; }, nullptr, ipm::kColStart);
      },
      std::runtime_error);

  // A throwing merge reaches the caller too — for a single-lane
  // partial and for one lane of a KernelSet while the other lane keeps
  // merging — and the pool drains instead of hanging.
  for (std::size_t jobs : {1u, 2u, 4u}) {
    for (std::size_t window : {1u, 0u}) {
      ipm::ParallelTraceScanner s(path, {.jobs = jobs, .merge_window = window});
      EXPECT_THROW(
          {
            (void)s.scan_columns(
                [](std::size_t chunk) { return static_cast<int>(chunk); },
                [](int&, const ipm::ColumnBatch&) {},
                [](int&, int&& b) {
                  if (b == 7) throw std::runtime_error("merge failed");
                },
                nullptr, ipm::kColStart);
          },
          std::runtime_error);
      EXPECT_THROW(
          {
            (void)s.scan_kernels([](std::size_t chunk) {
              return KernelSet(
                  OrderKernel(chunk, std::chrono::microseconds(0), nullptr, 5),
                  OrderKernel(chunk, std::chrono::microseconds(100)));
            });
          },
          std::runtime_error);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace eio::analysis
