// Equivalence tests: the streaming accumulators must reproduce the
// materialized batch path — histogram bins, moments, quantiles, KS
// inputs, rate series, reports — on seed traces from all three
// workloads (IOR, MADbench, GCRM). Where an analysis reads a trace,
// the in-memory Trace pass, the same trace saved as v3 and read back
// through a FileTraceSource, and (for mergeable kernels) a jobs-3
// run_kernels scan must each agree with a reference computed row by
// row in the test.
#include "core/streaming.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <span>
#include <vector>

#include "common/rng.h"

#include "core/distribution.h"
#include "core/histogram.h"
#include "core/kernel.h"
#include "core/ks.h"
#include "core/parallel_analysis.h"
#include "core/rate_series.h"
#include "core/samples.h"
#include "core/trace_diagram.h"
#include "ipm/report.h"
#include "ipm/trace_source.h"
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

/// `t` saved as v3 in 64-event chunks (so a jobs-3 scan folds and
/// merges many partials); returns the path.
std::string save_v3(const ipm::Trace& t) {
  const std::string path =
      test::temp_path("eio_equiv_" + t.experiment() + ".v3");
  std::ofstream out(path, std::ios::binary);
  ipm::TraceWriterV3 writer(out, t.experiment(), t.ranks(),
                            {.chunk_events = 64});
  for (const ipm::TraceEvent& e : t.events()) writer.add(e);
  writer.finish();
  return path;
}

bool is_data_call(const ipm::TraceEvent& e) {
  return e.op == posix::OpType::kRead || e.op == posix::OpType::kWrite;
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

TEST(StreamingEquivalenceTest, SeedTracesAreNonTrivial) {
  for (const ipm::Trace& t : seed_traces()) {
    EXPECT_GT(t.size(), 100u) << t.experiment();
    // Small enough that the default reservoir keeps every duration, so
    // order statistics below must be bit-identical, not approximate.
    EXPECT_LT(t.size(), stats::ReservoirSampler::kDefaultCapacity)
        << t.experiment();
  }
}

TEST(StreamingEquivalenceTest, MomentsMatchBatchPath) {
  for (const ipm::Trace& t : seed_traces()) {
    auto d = durations(t, {});
    stats::Moments batch = stats::compute_moments(d);
    stats::StreamingMoments acc;
    for (double x : d) acc.add(x);
    stats::Moments streamed = acc.moments();
    EXPECT_EQ(streamed.count, batch.count) << t.experiment();
    EXPECT_DOUBLE_EQ(streamed.mean, batch.mean) << t.experiment();
    EXPECT_DOUBLE_EQ(streamed.variance, batch.variance) << t.experiment();
    EXPECT_DOUBLE_EQ(streamed.skewness, batch.skewness) << t.experiment();
    EXPECT_DOUBLE_EQ(streamed.kurtosis_excess, batch.kurtosis_excess)
        << t.experiment();
  }
}

TEST(StreamingEquivalenceTest, PairwiseMergeMatchesSequentialFold) {
  for (const ipm::Trace& t : seed_traces()) {
    auto d = durations(t, {});
    stats::StreamingMoments whole, left, right;
    for (double x : d) whole.add(x);
    for (std::size_t i = 0; i < d.size(); ++i) {
      (i < d.size() / 2 ? left : right).add(d[i]);
    }
    left.merge(right);
    stats::Moments a = whole.moments();
    stats::Moments b = left.moments();
    EXPECT_EQ(a.count, b.count);
    EXPECT_NEAR(a.mean, b.mean, 1e-12 * std::abs(a.mean));
    EXPECT_NEAR(a.variance, b.variance, 1e-9 * std::abs(a.variance));
    EXPECT_NEAR(a.skewness, b.skewness, 1e-6 * std::abs(a.skewness) + 1e-9);
  }
}

TEST(StreamingEquivalenceTest, HistogramBinsMatchFromSamples) {
  for (const ipm::Trace& t : seed_traces()) {
    EventFilter write_filter{.op = posix::OpType::kWrite};
    auto d = durations(t, write_filter);
    ASSERT_FALSE(d.empty()) << t.experiment();
    for (stats::BinScale scale :
         {stats::BinScale::kLinear, stats::BinScale::kLog10}) {
      stats::Histogram batch = stats::Histogram::from_samples(d, scale, 40);

      // The streaming path: extrema pass, padded_range, fill pass —
      // fed from a TraceSource pass, not the vector.
      const std::vector<double> streamed_d = durations(t, write_filter);
      double lo = 0.0, hi = 0.0;
      std::size_t n = 0;
      for (double x : streamed_d) {
        lo = n == 0 ? x : std::min(lo, x);
        hi = n == 0 ? x : std::max(hi, x);
        ++n;
      }
      stats::Histogram::Range range = stats::Histogram::padded_range(lo, hi, scale);
      stats::Histogram streamed(scale, range.lo, range.hi, 40);
      for (double x : streamed_d) streamed.add(x);

      EXPECT_DOUBLE_EQ(streamed.lo(), batch.lo()) << t.experiment();
      EXPECT_DOUBLE_EQ(streamed.hi(), batch.hi()) << t.experiment();
      ASSERT_EQ(streamed.bin_count(), batch.bin_count());
      EXPECT_EQ(streamed.counts(), batch.counts()) << t.experiment();
      EXPECT_EQ(streamed.underflow(), batch.underflow());
      EXPECT_EQ(streamed.overflow(), batch.overflow());
    }
  }
}

TEST(StreamingEquivalenceTest, ReservoirKeepsKsInputsExact) {
  for (const ipm::Trace& t : seed_traces()) {
    EventFilter f{.op = posix::OpType::kWrite};
    auto batch = durations(t, f);

    SummarySink sink(f);
    t.for_each_columns(
        sink.required_columns(),
        [&sink](const ipm::ColumnBatch& b) { sink.add_batch(b); });
    const stats::ReservoirSampler& r = sink.summary().reservoir();

    // Below capacity the reservoir holds the stream verbatim, so the
    // KS input vectors are *identical*, not statistically close.
    ASSERT_TRUE(r.exact()) << t.experiment();
    EXPECT_EQ(r.samples(), batch) << t.experiment();

    stats::KsResult self = stats::ks_two_sample(r.samples(), batch);
    EXPECT_DOUBLE_EQ(self.statistic, 0.0);
  }
}

TEST(StreamingEquivalenceTest, QuantilesMatchEmpiricalDistribution) {
  for (const ipm::Trace& t : seed_traces()) {
    auto d = durations(t, {});
    stats::EmpiricalDistribution dist(d);
    stats::StreamingSummary summary;
    for (double x : d) summary.add(x);
    for (double q : {0.05, 0.25, 0.5, 0.75, 0.95, 0.99}) {
      EXPECT_DOUBLE_EQ(summary.quantile(q), dist.quantile(q))
          << t.experiment() << " q=" << q;
    }
    EXPECT_DOUBLE_EQ(summary.min(), dist.min());
    EXPECT_DOUBLE_EQ(summary.max(), dist.max());
  }
}

TEST(StreamingEquivalenceTest, PhaseSummariesMatchDurationsByPhase) {
  for (const ipm::Trace& t : seed_traces()) {
    std::map<std::int32_t, std::vector<double>> by_row;
    for (const ipm::TraceEvent& e : t.events()) {
      if (is_data_call(e)) by_row[e.phase].push_back(e.duration);
    }
    const ipm::FileTraceSource file(save_v3(t));
    auto fold = [](const ipm::TraceSource& source) {
      PhaseSummarySink sink{{}};
      source.for_each_columns(
          sink.required_columns(),
          [&sink](const ipm::ColumnBatch& b) { sink.add_batch(b); });
      return sink;
    };
    const PhaseSummarySink parallel =
        run_kernels(file, 3, hint_for({}),
                    [](std::size_t) { return PhaseSummarySink({}); });
    for (const PhaseSummarySink& sink : {fold(t), fold(file), parallel}) {
      ASSERT_EQ(sink.by_phase().size(), by_row.size()) << t.experiment();
      for (const auto& [phase, ds] : by_row) {
        auto it = sink.by_phase().find(phase);
        ASSERT_NE(it, sink.by_phase().end()) << t.experiment();
        stats::EmpiricalDistribution dist(ds);
        EXPECT_EQ(it->second.count(), dist.size());
        EXPECT_DOUBLE_EQ(it->second.median(), dist.median()) << t.experiment();
        EXPECT_DOUBLE_EQ(it->second.quantile(0.95), dist.quantile(0.95));
      }
    }
  }
}

TEST(StreamingEquivalenceTest, RateSeriesMatchesBatchAggregate) {
  for (const ipm::Trace& t : seed_traces()) {
    EventFilter f{.op = posix::OpType::kWrite};
    RateSeriesBuilder by_row(t.span(), 64);
    for (const ipm::TraceEvent& e : t.events()) {
      if (e.op == posix::OpType::kWrite) {
        by_row.add(e.start, e.duration, e.bytes);
      }
    }
    const TimeSeries& expected = by_row.series();
    const ipm::FileTraceSource file(save_v3(t));
    const TimeSeries parallel =
        run_kernels(file, 3, hint_for(f), [&](std::size_t) {
          return RateKernel(f, file.time_span(), 64);
        }).series();
    // Serial passes add in row order, bit for bit; merged chunk
    // partials add per-chunk sums, equal up to rounding.
    for (const auto& [series, tolerance] :
         {std::pair{aggregate_rate(t, f, 64), 0.0},
          std::pair{aggregate_rate(file, f, 64), 0.0},
          std::pair{parallel, 1e-12}}) {
      EXPECT_DOUBLE_EQ(series.t0, expected.t0);
      EXPECT_DOUBLE_EQ(series.dt, expected.dt);
      ASSERT_EQ(series.values.size(), expected.values.size());
      for (std::size_t i = 0; i < expected.values.size(); ++i) {
        EXPECT_NEAR(series.values[i], expected.values[i],
                    tolerance * expected.values[i])
            << t.experiment() << " bin " << i;
      }
    }
  }
}

TEST(StreamingEquivalenceTest, ReportsMatchBatchSummarize) {
  for (const ipm::Trace& t : seed_traces()) {
    std::map<posix::OpType, ipm::CallStats> by_row;
    for (const ipm::TraceEvent& e : t.events()) {
      ipm::CallStats& s = by_row[e.op];
      ++s.count;
      s.bytes += e.bytes;
    }
    const ipm::JobReport report = ipm::summarize(t);
    EXPECT_DOUBLE_EQ(report.wall_time, t.span()) << t.experiment();
    ASSERT_EQ(report.by_op.size(), by_row.size()) << t.experiment();
    for (const auto& [op, s] : report.by_op) {
      EXPECT_EQ(s.count, by_row[op].count) << posix::op_name(op);
      EXPECT_EQ(s.bytes, by_row[op].bytes) << posix::op_name(op);
    }
    EXPECT_EQ(ipm::report_text(ipm::FileTraceSource(save_v3(t))),
              ipm::report_text(t))
        << t.experiment();
  }
}

TEST(StreamingEquivalenceTest, TraceDiagramMatchesBatchRaster) {
  for (const ipm::Trace& t : seed_traces()) {
    TraceDiagram::Options opt{.max_rows = 16, .columns = 48};
    // The raster folded one row per batch.
    TraceDiagram by_row(t.ranks(), t.span(), opt);
    ipm::ColumnScratch scratch;
    for (const ipm::TraceEvent& e : t.events()) {
      by_row.add_batch(ipm::shred({&e, 1}, scratch));
    }
    const std::string expected = by_row.render_text();
    EXPECT_EQ(TraceDiagram(t, opt).render_text(), expected) << t.experiment();
    const ipm::FileTraceSource file(save_v3(t));
    EXPECT_EQ(TraceDiagram(file, opt).render_text(), expected)
        << t.experiment();
  }
}

TEST(StreamingEquivalenceTest, V3FileRoundTripPreservesAnalysisInputs) {
  // The full pipeline: workload trace -> v3 file -> FileTraceSource ->
  // streaming filter must yield the very vector the rows hold, and so
  // must the in-memory pass and a chunk-parallel summary's reservoir.
  for (const ipm::Trace& t : seed_traces()) {
    EventFilter f{.op = posix::OpType::kWrite};
    std::vector<double> by_row;
    for (const ipm::TraceEvent& e : t.events()) {
      if (e.op == posix::OpType::kWrite) by_row.push_back(e.duration);
    }
    const ipm::FileTraceSource source(save_v3(t));
    EXPECT_EQ(durations(t, f), by_row) << t.experiment();
    EXPECT_EQ(durations(source, f), by_row) << t.experiment();
    const SummarySink parallel =
        run_kernels(source, 3, hint_for(f),
                    [&](std::size_t) { return SummarySink(f); });
    ASSERT_TRUE(parallel.summary().reservoir().exact()) << t.experiment();
    EXPECT_EQ(parallel.summary().reservoir().samples(), by_row)
        << t.experiment();
  }
}

// ---------------------------------------------------------------------------
// Merge kernels: the partials a chunk-parallel scan folds per chunk
// must merge back into exactly what the serial stream produces.

TEST(MergeKernelsTest, ReservoirMergeConcatenatesBelowCapacity) {
  // Chunk partials merged in stream order reproduce the serial sample
  // verbatim while the combined count fits the capacity — regardless
  // of the partials' seeds (no draws happen below capacity).
  for (const ipm::Trace& t : seed_traces()) {
    auto d = durations(t, {});
    stats::ReservoirSampler serial;
    for (double x : d) serial.add(x);
    ASSERT_TRUE(serial.exact()) << t.experiment();

    stats::ReservoirSampler merged;
    const std::size_t chunk = 100;
    for (std::size_t i = 0; i < d.size(); i += chunk) {
      stats::ReservoirSampler part(
          stats::ReservoirSampler::kDefaultCapacity,
          rng::substream_seed(0x9E3779B97F4A7C15ULL, i / chunk));
      for (std::size_t j = i; j < std::min(i + chunk, d.size()); ++j) {
        part.add(d[j]);
      }
      merged.merge(part);
    }
    EXPECT_EQ(merged.seen(), serial.seen());
    EXPECT_EQ(merged.samples(), serial.samples()) << t.experiment();
  }
}

TEST(MergeKernelsTest, ReservoirExactContinuationMatchesSerialAdds) {
  // Past capacity, merging an *exact* partial absorbs its buffer with
  // the same skip-gap draw sequence serial adds would have used — so
  // the merged sample is bit-identical to serial (the add_batch()
  // exactness contract).
  constexpr std::size_t kCap = 64;
  std::vector<double> stream(1060);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i] = 0.5 * static_cast<double>(i);
  }
  stats::ReservoirSampler serial(kCap, 42);
  for (double x : stream) serial.add(x);

  stats::ReservoirSampler head(kCap, 42);
  for (std::size_t i = 0; i < 1000; ++i) head.add(stream[i]);
  stats::ReservoirSampler tail(kCap, 7);  // different seed: irrelevant
  for (std::size_t i = 1000; i < stream.size(); ++i) tail.add(stream[i]);
  ASSERT_FALSE(head.exact());
  ASSERT_TRUE(tail.exact());

  head.merge(tail);
  EXPECT_EQ(head.seen(), serial.seen());
  EXPECT_EQ(head.samples(), serial.samples());
}

TEST(MergeKernelsTest, ReservoirMergeOfExactPartialsIsOneStream) {
  // A scan's accumulator starts empty, and its first partials may be
  // empty too (chunks with no matching row). Merging exact partials in
  // stream order, past capacity, must still draw exactly the sample of
  // one serial add_batch pass with the accumulator's seed, whatever
  // the partials' own seeds: the first non-empty partial is continued,
  // not adopted.
  constexpr std::size_t kCap = 64;
  std::vector<double> stream(3000);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i] = std::cos(0.37 * static_cast<double>(i)) + 1.5;
  }
  stats::ReservoirSampler serial(kCap);
  serial.add_batch(stream);
  ASSERT_FALSE(serial.exact());

  const std::size_t sizes[] = {0, 0, 0, 17, 0, 47, 64, 1, 63, 0, 40};
  stats::ReservoirSampler merged(kCap);
  std::size_t at = 0, part_index = 0;
  auto merge_part = [&](std::size_t n) {
    stats::ReservoirSampler part(
        kCap, rng::substream_seed(0x9E3779B97F4A7C15ULL, part_index++));
    part.add_batch(std::span<const double>(stream).subspan(at, n));
    ASSERT_TRUE(part.exact());
    merged.merge(part);
    at += n;
  };
  for (std::size_t n : sizes) merge_part(n);
  while (at < stream.size()) merge_part(std::min(kCap, stream.size() - at));

  EXPECT_EQ(merged.seen(), serial.seen());
  EXPECT_EQ(merged.samples(), serial.samples());
}

TEST(MergeKernelsTest, ReservoirAbsorbMatchesPerElementAdds) {
  // The add_batch() contract itself: add_batch(span) equals per-element
  // add() of the same values, for any interleaving with add() calls and
  // regardless of where the pending skip gap lands.
  constexpr std::size_t kCap = 32;
  std::vector<double> stream(4096);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i] = std::sin(0.1 * static_cast<double>(i)) + 2.0;
  }
  stats::ReservoirSampler serial(kCap, 1234);
  for (double x : stream) serial.add(x);

  stats::ReservoirSampler absorbed(kCap, 1234);
  absorbed.add_batch(stream);
  EXPECT_EQ(absorbed.seen(), serial.seen());
  EXPECT_EQ(absorbed.samples(), serial.samples());
}

TEST(MergeKernelsTest, ReservoirPiecewiseAbsorbMatchesOneSerialPass) {
  // Folding a stream in arbitrary uneven pieces — the skip gap
  // spanning piece boundaries — equals one serial pass. This is what
  // the exact-side merge path and the columnar scan path rely on.
  constexpr std::size_t kCap = 48;
  std::vector<double> stream(5000);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i] = 1e-3 * static_cast<double>((i * 2654435761u) % 100000);
  }
  stats::ReservoirSampler serial(kCap, 99);
  for (double x : stream) serial.add(x);

  stats::ReservoirSampler pieced(kCap, 99);
  const std::size_t cuts[] = {1, 7, 40, 48, 49, 513, 2000, 4999, 5000};
  std::size_t at = 0;
  for (std::size_t cut : cuts) {
    pieced.add_batch(std::span<const double>(stream).subspan(at, cut - at));
    at = cut;
  }
  EXPECT_EQ(pieced.seen(), serial.seen());
  EXPECT_EQ(pieced.samples(), serial.samples());

  // Interleaving single adds with batches must land on the same
  // sequence too.
  stats::ReservoirSampler mixed(kCap, 99);
  for (std::size_t i = 0; i < 100; ++i) mixed.add(stream[i]);
  mixed.add_batch(std::span<const double>(stream).subspan(100, 3000));
  for (std::size_t i = 3100; i < stream.size(); ++i) mixed.add(stream[i]);
  EXPECT_EQ(mixed.samples(), serial.samples());
}

TEST(MergeKernelsTest, ReservoirSkipGapIsSeedStableAndUnbiased) {
  // Same (capacity, seed, stream) -> identical sample; a different
  // seed diverges past capacity. And the Vitter skip-gap acceptance
  // keeps the sample uniform: over many seeds, early and late stream
  // halves are equally represented.
  constexpr std::size_t kCap = 64;
  std::vector<double> stream(10000);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i] = static_cast<double>(i);
  }
  stats::ReservoirSampler a(kCap, 5);
  stats::ReservoirSampler b(kCap, 5);
  stats::ReservoirSampler c(kCap, 6);
  for (double x : stream) {
    a.add(x);
    b.add(x);
    c.add(x);
  }
  EXPECT_EQ(a.samples(), b.samples());
  EXPECT_NE(a.samples(), c.samples());

  std::size_t early = 0, total = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    stats::ReservoirSampler r(kCap, seed);
    r.add_batch(stream);
    EXPECT_EQ(r.seen(), stream.size());
    EXPECT_EQ(r.samples().size(), kCap);
    for (double x : r.samples()) early += x < 5000.0 ? 1 : 0;
    total += kCap;
  }
  // 64 * 64 = 4096 slots, expect ~2048 from the early half; +/-8 sigma
  // (sigma ~= 32) keeps this deterministic-in-practice.
  EXPECT_GT(early, total / 2 - 256);
  EXPECT_LT(early, total / 2 + 256);
}

TEST(MergeKernelsTest, ReservoirWeightedMergeIsDeterministicAndBalanced) {
  // When both sides have overflowed, the weighted merge draws from the
  // self substream: deterministic in (seeds, merge order), keeps both
  // streams represented in proportion to their weights.
  constexpr std::size_t kCap = 64;
  auto build = [](double base, std::uint64_t seed) {
    stats::ReservoirSampler r(kCap, seed);
    for (int i = 0; i < 1000; ++i) r.add(base + 1e-3 * i);
    return r;
  };
  const stats::ReservoirSampler a = build(0.0, 1);
  const stats::ReservoirSampler b = build(10.0, 2);
  ASSERT_FALSE(a.exact());
  ASSERT_FALSE(b.exact());

  stats::ReservoirSampler m1 = a;
  m1.merge(b);
  stats::ReservoirSampler m2 = a;
  m2.merge(b);
  EXPECT_EQ(m1.samples(), m2.samples());
  EXPECT_EQ(m1.seen(), 2000u);
  EXPECT_EQ(m1.samples().size(), kCap);
  // Equal stream weights: expect ~32 of 64 slots from each side; the
  // [10, 54] band is many sigma of slack around that.
  std::size_t from_a = 0;
  for (double x : m1.samples()) from_a += x < 5.0 ? 1 : 0;
  EXPECT_GE(from_a, 10u);
  EXPECT_LE(from_a, 54u);
}

TEST(MergeKernelsTest, SummaryMergeMatchesSerialStream) {
  // Chunk partials merged in stream order equal one serial pass: at the
  // default capacity the sample is the stream itself, and at a small
  // one (past capacity on every seed trace) the partials continue one
  // sampling stream, so the sample matches element for element.
  for (const std::size_t capacity :
       {stats::ReservoirSampler::kDefaultCapacity, std::size_t{64}}) {
    const stats::SummaryOptions opt{.reservoir_capacity = capacity};
    for (const ipm::Trace& t : seed_traces()) {
      auto d = durations(t, {});
      stats::StreamingSummary serial(opt);
      for (double x : d) serial.add(x);

      stats::StreamingSummary merged(opt);
      const std::size_t chunk = 48;  // exact partials at both capacities
      for (std::size_t i = 0; i < d.size(); i += chunk) {
        stats::StreamingSummary part(opt);
        for (std::size_t j = i; j < std::min(i + chunk, d.size()); ++j) {
          part.add(d[j]);
        }
        merged.merge(part);
      }

      EXPECT_EQ(merged.count(), serial.count()) << t.experiment();
      EXPECT_DOUBLE_EQ(merged.min(), serial.min());
      EXPECT_DOUBLE_EQ(merged.max(), serial.max());
      stats::Moments a = serial.moments();
      stats::Moments b = merged.moments();
      EXPECT_NEAR(b.mean, a.mean, 1e-12 * std::abs(a.mean));
      EXPECT_NEAR(b.variance, a.variance, 1e-9 * std::abs(a.variance));
      EXPECT_EQ(merged.reservoir().samples(), serial.reservoir().samples())
          << t.experiment() << " capacity=" << capacity;
      for (double q : {0.25, 0.5, 0.95}) {
        EXPECT_DOUBLE_EQ(merged.quantile(q), serial.quantile(q))
            << t.experiment() << " q=" << q;
      }
    }
  }
}

TEST(MergeKernelsTest, PhaseSummarySinkMergeMatchesSingleSink) {
  for (const ipm::Trace& t : seed_traces()) {
    PhaseSummarySink whole{{}};
    PhaseSummarySink left{{}};
    PhaseSummarySink right{{}};
    const std::span<const ipm::TraceEvent> rows(t.events());
    const std::size_t half = t.size() / 2;
    ipm::ColumnScratch scratch;
    whole.add_batch(ipm::shred(rows, scratch));
    left.add_batch(ipm::shred(rows.first(half), scratch));
    right.add_batch(ipm::shred(rows.subspan(half), scratch));
    left.merge(right);
    ASSERT_EQ(left.by_phase().size(), whole.by_phase().size())
        << t.experiment();
    for (const auto& [phase, s] : whole.by_phase()) {
      auto it = left.by_phase().find(phase);
      ASSERT_NE(it, left.by_phase().end()) << t.experiment();
      EXPECT_EQ(it->second.count(), s.count());
      EXPECT_DOUBLE_EQ(it->second.median(), s.median()) << t.experiment();
      EXPECT_DOUBLE_EQ(it->second.quantile(0.95), s.quantile(0.95));
    }
  }
}

TEST(MergeKernelsTest, RateSeriesMergeMatchesSingleBuilder) {
  for (const ipm::Trace& t : seed_traces()) {
    const double span = t.span();
    RateSeriesBuilder whole(span, 64);
    RateSeriesBuilder left(span, 64);
    RateSeriesBuilder right(span, 64);
    const auto& events = t.events();
    for (std::size_t i = 0; i < events.size(); ++i) {
      const ipm::TraceEvent& e = events[i];
      whole.add(e.start, e.duration, e.bytes);
      (i < events.size() / 2 ? left : right).add(e.start, e.duration, e.bytes);
    }
    left.merge(right);
    const TimeSeries& a = whole.series();
    const TimeSeries& b = left.series();
    EXPECT_DOUBLE_EQ(b.t0, a.t0);
    EXPECT_DOUBLE_EQ(b.dt, a.dt);
    ASSERT_EQ(b.values.size(), a.values.size());
    for (std::size_t i = 0; i < a.values.size(); ++i) {
      // Rates are linear, so partials merge exactly up to FP
      // reassociation of the per-bin sums.
      EXPECT_NEAR(b.values[i], a.values[i],
                  1e-9 * std::max(std::abs(a.values[i]), 1.0))
          << t.experiment() << " bin " << i;
    }
  }
}

}  // namespace
}  // namespace eio::analysis
