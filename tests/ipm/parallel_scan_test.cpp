// ParallelTraceScanner and the chunk-parallel analysis kernels: the
// parallel scan must agree with the serial streaming path on IOR /
// MADbench / GCRM seed traces — byte-identically for every --jobs
// value, and exactly (not statistically) wherever the underlying
// kernel merges exactly. Also covers hinted (selective) parallel
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
#include <fstream>
#include <numeric>
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

/// Write `t` as an indexed v2 file with a small chunk size, so even
/// the seed traces span many chunks and the scan has real parallelism
/// to get wrong.
std::string write_v2_chunked(const ipm::Trace& t, std::size_t chunk_events,
                             const std::string& tag) {
  std::string path = test::temp_path("eio_pscan_" + tag + ".bin");
  std::ofstream out(path, std::ios::binary);
  ipm::TraceWriterV2 writer(out, t.experiment(), t.ranks(),
                            {.chunk_events = chunk_events});
  for (const ipm::TraceEvent& e : t.events()) writer.add(e);
  writer.finish();
  return path;
}

/// v3 twin of write_v2_chunked: same trace, same chunk boundaries,
/// columnar encoding.
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
  source.for_each([&sink](const ipm::TraceEvent& e) { sink.on_event(e); });
  return sink.summary();
}

TEST(ParallelScanTest, ScannerRejectsNonV2Files) {
  const ipm::Trace t = monotonic_trace(100);
  std::string path = test::temp_path("eio_pscan_tsv.trace");
  t.save(path);
  EXPECT_THROW(ipm::ParallelTraceScanner scanner(path), std::runtime_error);
  std::remove(path.c_str());
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
    const std::string path = write_v2_chunked(t, 64, t.experiment());
    ipm::FileTraceSource source(path);
    const stats::StreamingSummary serial = serial_summary(source, {});

    ipm::ParallelTraceScanner scanner(path, {.jobs = 4});
    ASSERT_GT(scanner.index().chunks.size(), 4u) << t.experiment();
    const stats::StreamingSummary scanned = scan_summary(scanner, {});

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
  const std::string path = write_v2_chunked(t, 64, "jobs_invariance");
  const EventFilter writes{.op = posix::OpType::kWrite};

  ipm::ParallelTraceScanner reference(path, {.jobs = 1});
  const stats::StreamingSummary base = scan_summary(reference, writes);
  const auto base_hist =
      scan_histogram(reference, writes, stats::BinScale::kLog10, 40);
  const TimeSeries base_rate = scan_rate(reference, writes, 64);
  const auto base_phases = scan_phase_summaries(reference, {});
  ASSERT_TRUE(base_hist.has_value());

  // A deliberately tight merge window exercises the worker throttle.
  for (ipm::ScanOptions opt :
       {ipm::ScanOptions{.jobs = 2}, ipm::ScanOptions{.jobs = 4},
        ipm::ScanOptions{.jobs = 4, .merge_window = 2}}) {
    ipm::ParallelTraceScanner scanner(path, opt);
    const stats::StreamingSummary s = scan_summary(scanner, writes);
    EXPECT_EQ(s.count(), base.count());
    EXPECT_EQ(s.reservoir().samples(), base.reservoir().samples());
    EXPECT_EQ(s.moments().mean, base.moments().mean);
    EXPECT_EQ(s.moments().variance, base.moments().variance);

    const auto h = scan_histogram(scanner, writes, stats::BinScale::kLog10, 40);
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->counts(), base_hist->counts());
    EXPECT_EQ(h->lo(), base_hist->lo());
    EXPECT_EQ(h->hi(), base_hist->hi());

    const TimeSeries r = scan_rate(scanner, writes, 64);
    EXPECT_EQ(r.t0, base_rate.t0);
    EXPECT_EQ(r.dt, base_rate.dt);
    EXPECT_EQ(r.values, base_rate.values);

    const auto phases = scan_phase_summaries(scanner, {});
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
  const std::string path = write_v2_chunked(t, 64, "hinted");
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
    const stats::StreamingSummary scanned = scan_summary(scanner, f);
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
  const std::string path = write_v2_chunked(t, 128, "window");
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
  const stats::StreamingSummary scanned = scan_summary(scanner, window);
  ASSERT_GT(serial.count(), 0u);
  EXPECT_EQ(scanned.count(), serial.count());
  EXPECT_EQ(scanned.reservoir().samples(), serial.reservoir().samples());

  // A window entirely past the trace admits nothing and yields the
  // empty summary on both paths.
  const EventFilter beyond{.t_lo = span + 1.0};
  EXPECT_EQ(scan_summary(scanner, beyond).count(), 0u);
  EXPECT_EQ(serial_summary(source, beyond).count(), 0u);
  std::remove(path.c_str());
}

TEST(ParallelScanTest, HistogramMatchesBatchBinning) {
  for (const ipm::Trace& t : seed_traces()) {
    const std::string path = write_v2_chunked(t, 64, t.experiment() + "_hist");
    ipm::ParallelTraceScanner scanner(path, {.jobs = 4});
    const EventFilter writes{.op = posix::OpType::kWrite};
    const auto d = durations(t, writes);
    ASSERT_FALSE(d.empty()) << t.experiment();

    for (stats::BinScale scale :
         {stats::BinScale::kLinear, stats::BinScale::kLog10}) {
      const stats::Histogram batch =
          stats::Histogram::from_samples(d, scale, 40);
      const auto scanned = scan_histogram(scanner, writes, scale, 40);
      ASSERT_TRUE(scanned.has_value()) << t.experiment();
      EXPECT_DOUBLE_EQ(scanned->lo(), batch.lo()) << t.experiment();
      EXPECT_DOUBLE_EQ(scanned->hi(), batch.hi()) << t.experiment();
      EXPECT_EQ(scanned->counts(), batch.counts()) << t.experiment();
      EXPECT_EQ(scanned->underflow(), batch.underflow());
      EXPECT_EQ(scanned->overflow(), batch.overflow());
    }

    // Nothing matches: the scan reports "no histogram", not a crash.
    EXPECT_FALSE(
        scan_histogram(scanner, {.rank = 99999}, stats::BinScale::kLinear, 40)
            .has_value());
    std::remove(path.c_str());
  }
}

TEST(ParallelScanTest, RateSeriesMatchesSerialAggregate) {
  for (const ipm::Trace& t : seed_traces()) {
    const std::string path = write_v2_chunked(t, 64, t.experiment() + "_rate");
    ipm::FileTraceSource source(path);
    ipm::ParallelTraceScanner scanner(path, {.jobs = 4});
    const EventFilter writes{.op = posix::OpType::kWrite};

    const TimeSeries serial = aggregate_rate(source, writes, 64);
    const TimeSeries scanned = scan_rate(scanner, writes, 64);
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
    const std::string path = write_v2_chunked(t, 64, t.experiment() + "_phase");
    ipm::FileTraceSource source(path);
    ipm::ParallelTraceScanner scanner(path, {.jobs = 4});

    PhaseSummarySink serial{{}};
    source.for_each(
        [&serial](const ipm::TraceEvent& e) { serial.on_event(e); });
    const auto scanned = scan_phase_summaries(scanner, {});

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
  const std::string path = write_v2_chunked(t, 128, "batch_dispatch");
  ipm::FileTraceSource source(path);

  std::vector<double> per_event;
  source.for_each(
      [&](const ipm::TraceEvent& e) { per_event.push_back(e.start); });

  std::vector<double> batched;
  std::size_t batches = 0;
  source.for_each_batch([&](std::span<const ipm::TraceEvent> events) {
    ++batches;
    for (const ipm::TraceEvent& e : events) batched.push_back(e.start);
  });
  EXPECT_EQ(batched, per_event);
  EXPECT_GT(batches, 1u);  // one span per v2 chunk

  // An in-memory source hands out exactly one span — the whole trace.
  ipm::MemoryTraceSource memory(t);
  batches = 0;
  std::size_t total = 0;
  memory.for_each_batch([&](std::span<const ipm::TraceEvent> events) {
    ++batches;
    total += events.size();
  });
  EXPECT_EQ(batches, 1u);
  EXPECT_EQ(total, t.size());
  std::remove(path.c_str());
}

TEST(ParallelScanTest, V3ScanMatchesV2ScanExactly) {
  // Same trace, same chunk boundaries, different encodings: every
  // analysis must come out byte-identical across the format seam (the
  // per-chunk reservoir substreams line up because chunking does).
  for (const ipm::Trace& t : seed_traces()) {
    const std::string v2 = write_v2_chunked(t, 64, t.experiment() + "_x");
    const std::string v3 = write_v3_chunked(t, 64, t.experiment() + "_x");
    ipm::ParallelTraceScanner s2(v2, {.jobs = 4});
    ipm::ParallelTraceScanner s3(v3, {.jobs = 4});
    EXPECT_EQ(s2.format(), ipm::TraceFormat::kBinaryV2);
    EXPECT_EQ(s3.format(), ipm::TraceFormat::kBinaryV3);
    EXPECT_EQ(s3.zero_copy(), ipm::MappedFile::mmap_supported());
    ASSERT_EQ(s3.index().chunks.size(), s2.index().chunks.size());

    const EventFilter writes{.op = posix::OpType::kWrite};
    const stats::StreamingSummary a = scan_summary(s2, writes);
    const stats::StreamingSummary b = scan_summary(s3, writes);
    EXPECT_EQ(b.count(), a.count()) << t.experiment();
    EXPECT_EQ(b.moments().mean, a.moments().mean);
    EXPECT_EQ(b.moments().variance, a.moments().variance);
    EXPECT_EQ(b.reservoir().samples(), a.reservoir().samples());

    const auto h2 = scan_histogram(s2, writes, stats::BinScale::kLog10, 40);
    const auto h3 = scan_histogram(s3, writes, stats::BinScale::kLog10, 40);
    ASSERT_TRUE(h2.has_value());
    ASSERT_TRUE(h3.has_value());
    EXPECT_EQ(h3->counts(), h2->counts());
    EXPECT_EQ(h3->lo(), h2->lo());
    EXPECT_EQ(h3->hi(), h2->hi());

    const TimeSeries r2 = scan_rate(s2, writes, 64);
    const TimeSeries r3 = scan_rate(s3, writes, 64);
    EXPECT_EQ(r3.values, r2.values) << t.experiment();

    const auto p2 = scan_phase_summaries(s2, {});
    const auto p3 = scan_phase_summaries(s3, {});
    ASSERT_EQ(p3.size(), p2.size());
    for (const auto& [phase, summary] : p2) {
      auto it = p3.find(phase);
      ASSERT_NE(it, p3.end()) << t.experiment();
      EXPECT_EQ(it->second.reservoir().samples(),
                summary.reservoir().samples());
    }
    std::remove(v2.c_str());
    std::remove(v3.c_str());
  }
}

TEST(ParallelScanTest, V3ScanIsByteIdenticalForEveryJobsValue) {
  const ipm::Trace t = gcrm_trace();
  const std::string path = write_v3_chunked(t, 64, "jobs_invariance");
  const EventFilter writes{.op = posix::OpType::kWrite};

  ipm::ParallelTraceScanner reference(path, {.jobs = 1});
  const stats::StreamingSummary base = scan_summary(reference, writes);
  for (ipm::ScanOptions opt :
       {ipm::ScanOptions{.jobs = 2}, ipm::ScanOptions{.jobs = 4},
        ipm::ScanOptions{.jobs = 4, .merge_window = 2}}) {
    ipm::ParallelTraceScanner scanner(path, opt);
    const stats::StreamingSummary s = scan_summary(scanner, writes);
    EXPECT_EQ(s.count(), base.count());
    EXPECT_EQ(s.reservoir().samples(), base.reservoir().samples());
    EXPECT_EQ(s.moments().mean, base.moments().mean);
  }
  std::remove(path.c_str());
}

TEST(ParallelScanTest, ScanColumnsAgreesWithRowScan) {
  const ipm::Trace t = monotonic_trace(1500);
  for (bool v3 : {false, true}) {
    const std::string path =
        v3 ? write_v3_chunked(t, 128, "cols") : write_v2_chunked(t, 128, "cols");
    ipm::ParallelTraceScanner scanner(path, {.jobs = 4});

    struct Acc {
      double sum = 0.0;
      std::uint64_t n = 0;
    };
    const Acc rows = scanner.scan(
        [](std::size_t) { return Acc{}; },
        [](Acc& a, std::span<const ipm::TraceEvent> events) {
          for (const ipm::TraceEvent& e : events) {
            a.sum += e.start;
            ++a.n;
          }
        },
        [](Acc& a, Acc&& b) {
          a.sum += b.sum;
          a.n += b.n;
        });
    // The columnar fold reads only the start column — on v3 nothing
    // else is even decoded — and must fold the identical sequence.
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
    EXPECT_EQ(cols.n, rows.n) << (v3 ? "v3" : "v2");
    EXPECT_EQ(cols.sum, rows.sum) << (v3 ? "v3" : "v2");
    EXPECT_EQ(rows.n, t.size());
    std::remove(path.c_str());
  }
}

TEST(ParallelScanTest, ChunkReaderStreamFallbackMatchesMmap) {
  const ipm::Trace t = monotonic_trace(600);
  const std::string path = write_v3_chunked(t, 128, "fallback");
  std::ifstream in(path, std::ios::binary);
  (void)ipm::sniff_format(in);
  const ipm::TraceIndex index = ipm::read_index_v3(in);

  const ipm::MappedFile map(path);
  ipm::ChunkReader mapped(path, ipm::TraceFormat::kBinaryV3, &map);
  ipm::ChunkReader streamed(path, ipm::TraceFormat::kBinaryV3, nullptr);
  for (std::size_t c = 0; c < index.chunks.size(); ++c) {
    const ipm::ColumnBatch a = mapped.read_columns(index, c, ipm::kColAll);
    std::span<const ipm::TraceEvent> b = streamed.read(index, c);
    ASSERT_EQ(a.size(), b.size()) << "chunk " << c;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.start[i], b[i].start);
      EXPECT_EQ(a.bytes[i], b[i].bytes);
      EXPECT_EQ(a.phase[i], b[i].phase);
    }
  }
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
  // The tentpole contract: one scan_kernels pass over a KernelSet must
  // produce exactly what the per-kernel scans produce — same reservoir
  // draws, same bins, same rate sums — on both encodings.
  for (const ipm::Trace& t : seed_traces()) {
    for (bool v3 : {false, true}) {
      const std::string path =
          v3 ? write_v3_chunked(t, 64, t.experiment() + "_fused")
             : write_v2_chunked(t, 64, t.experiment() + "_fused");
      ipm::ParallelTraceScanner scanner(path, {.jobs = 4});
      const EventFilter writes{.op = posix::OpType::kWrite};
      const EventFilter reads{.op = posix::OpType::kRead};
      const double span = scanner.time_span();

      const stats::StreamingSummary sw = scan_summary(scanner, writes);
      const stats::StreamingSummary sr = scan_summary(scanner, reads);
      const auto hist =
          scan_histogram(scanner, writes, stats::BinScale::kLog10, 40);
      const TimeSeries rate = scan_rate(scanner, writes, 64);
      ASSERT_TRUE(hist.has_value()) << t.experiment();

      const ipm::ChunkHint hint =
          ipm::ChunkHint::union_of(hint_for(writes), hint_for(reads));
      auto fused = scanner.scan_kernels(
          [&](std::size_t chunk) {
            return KernelSet(
                SummarySink(writes, chunk_summary_options({}, chunk)),
                SummarySink(reads, chunk_summary_options({}, chunk)),
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
        [&](std::size_t chunk) {
          return KernelSet(
              SummarySink(writes, chunk_summary_options({}, chunk)),
              HistogramKernel(writes, {.bins = 40}),
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
  const std::string path = write_v2_chunked(t, 64, "error_path");
  ipm::ParallelTraceScanner scanner(path, {.jobs = 4});
  EXPECT_THROW(
      {
        (void)scanner.scan(
            [](std::size_t) { return 0; },
            [](int&, std::span<const ipm::TraceEvent> events) {
              if (events.front().start > 1.0) {
                throw std::runtime_error("fold failed");
              }
            },
            [](int& a, int&& b) { a += b; });
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
            (void)s.scan(
                [](std::size_t chunk) { return static_cast<int>(chunk); },
                [](int&, std::span<const ipm::TraceEvent>) {},
                [](int&, int&& b) {
                  if (b == 7) throw std::runtime_error("merge failed");
                });
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
