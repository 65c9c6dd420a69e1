// Unit tests for trace analysis: sample extraction, rate series,
// completion curves, and the trace diagram.
#include <gtest/gtest.h>

#include <vector>

#include "common/units.h"
#include "core/rate_series.h"
#include "core/samples.h"
#include "core/trace_diagram.h"
#include "ipm/trace.h"

namespace eio::analysis {
namespace {

using posix::OpType;

ipm::TraceEvent event(double start, double dur, OpType op, RankId rank,
                      Bytes bytes, std::int32_t phase = 0, Bytes offset = 0) {
  ipm::TraceEvent e;
  e.start = start;
  e.duration = dur;
  e.op = op;
  e.rank = rank;
  e.file = 1;
  e.offset = offset;
  e.bytes = bytes;
  e.phase = phase;
  return e;
}

ipm::Trace sample_trace() {
  ipm::Trace t("test", 4);
  t.add(event(0.0, 1.0, OpType::kWrite, 0, 100 * MiB, 1));
  t.add(event(0.0, 2.0, OpType::kWrite, 1, 100 * MiB, 1));
  t.add(event(0.5, 0.5, OpType::kRead, 2, 50 * MiB, 1));
  t.add(event(2.0, 1.0, OpType::kWrite, 0, 100 * MiB, 2));
  t.add(event(2.0, 0.001, OpType::kSeek, 3, 0, 2));
  t.add(event(3.0, 1.0, OpType::kRead, 3, 2 * KiB, 2));
  return t;
}

TEST(SamplesTest, FilterByOp) {
  auto writes = durations(sample_trace(), {.op = OpType::kWrite});
  EXPECT_EQ(writes.size(), 3u);
  auto reads = durations(sample_trace(), {.op = OpType::kRead});
  EXPECT_EQ(reads.size(), 2u);
}

TEST(SamplesTest, FilterByPhaseAndBytes) {
  auto phase1 = durations(sample_trace(), {.phase = 1});
  EXPECT_EQ(phase1.size(), 3u);
  auto big = durations(sample_trace(), {.min_bytes = 60 * MiB});
  EXPECT_EQ(big.size(), 3u);
  auto small = durations(sample_trace(), {.max_bytes = 4 * KiB});
  EXPECT_EQ(small.size(), 1u);
}

TEST(SamplesTest, DataCallsOnlyByDefault) {
  auto all = durations(sample_trace(), {});
  EXPECT_EQ(all.size(), 5u);  // seek excluded
  auto seeks = durations(sample_trace(), {.op = OpType::kSeek});
  EXPECT_EQ(seeks.size(), 1u);
}

TEST(SamplesTest, FilterByRank) {
  auto rank0 = durations(sample_trace(), {.rank = RankId{0}});
  EXPECT_EQ(rank0.size(), 2u);
}

TEST(SamplesTest, SecondsPerMibNormalization) {
  auto spm = seconds_per_mib(sample_trace(), {.op = OpType::kWrite});
  ASSERT_EQ(spm.size(), 3u);
  EXPECT_NEAR(spm[0], 1.0 / 100.0, 1e-12);
  EXPECT_NEAR(spm[1], 2.0 / 100.0, 1e-12);
}

TEST(SamplesTest, RatesMib) {
  auto rates = rates_mib(sample_trace(), {.op = OpType::kRead});
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_NEAR(rates[0], 100.0, 1e-9);  // 50 MiB in 0.5 s
}

TEST(SamplesTest, GroupByRankOrdered) {
  auto by_rank = durations_by_rank(sample_trace(), {.op = OpType::kWrite});
  EXPECT_EQ(by_rank[0], (std::vector<double>{1.0, 1.0}));
  EXPECT_EQ(by_rank[1], (std::vector<double>{2.0}));
}

TEST(SamplesTest, PerRankOrderedValidatesCounts) {
  ipm::Trace t("k", 2);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) {
      t.add(event(c, 1.0 + r, OpType::kWrite, static_cast<RankId>(r), MiB));
    }
  }
  auto flat = per_rank_ordered(t, {.op = OpType::kWrite}, 3);
  EXPECT_EQ(flat.size(), 6u);
  EXPECT_DOUBLE_EQ(flat[0], 1.0);
  EXPECT_DOUBLE_EQ(flat[3], 2.0);
  EXPECT_THROW((void)per_rank_ordered(t, {.op = OpType::kWrite}, 2),
               std::logic_error);
}

TEST(RateSeriesTest, IntegralConservesBytes) {
  ipm::Trace t = sample_trace();
  TimeSeries s = aggregate_rate(t, {.op = OpType::kWrite}, 64);
  // 3 writes x 100 MiB spread over their intervals.
  EXPECT_NEAR(s.integral(), 300.0 * static_cast<double>(MiB),
              1.0 * static_cast<double>(MiB));
}

TEST(RateSeriesTest, PeakRateMatchesOverlap) {
  ipm::Trace t("r", 2);
  // Two 1-second 100 MiB transfers overlapping fully: 200 MiB/s peak.
  t.add(event(1.0, 1.0, OpType::kWrite, 0, 100 * MiB));
  t.add(event(1.0, 1.0, OpType::kWrite, 1, 100 * MiB));
  TimeSeries s = aggregate_rate(t, {}, 100);
  EXPECT_NEAR(s.max_value(), 200.0 * static_cast<double>(MiB),
              2.0 * static_cast<double>(MiB));
  // Rate is zero before the transfers start.
  EXPECT_DOUBLE_EQ(s.values[0], 0.0);
}

TEST(RateSeriesTest, TimeAxis) {
  ipm::Trace t("r", 1);
  t.add(event(0.0, 10.0, OpType::kWrite, 0, MiB));
  TimeSeries s = aggregate_rate(t, {}, 10);
  EXPECT_DOUBLE_EQ(s.dt, 1.0);
  EXPECT_DOUBLE_EQ(s.time_at(0), 0.5);
  EXPECT_DOUBLE_EQ(s.time_at(9), 9.5);
}

TEST(CompletionCurveTest, FractionsReachOne) {
  ipm::Trace t = sample_trace();
  ProgressCurve c = completion_curve(t, {.op = OpType::kWrite});
  ASSERT_EQ(c.t.size(), 4u);  // origin + 3 events
  EXPECT_DOUBLE_EQ(c.fraction.front(), 0.0);
  EXPECT_DOUBLE_EQ(c.fraction.back(), 1.0);
  for (std::size_t i = 1; i < c.t.size(); ++i) {
    EXPECT_GE(c.t[i], c.t[i - 1]);
    EXPECT_GE(c.fraction[i], c.fraction[i - 1]);
  }
}

TEST(CompletionCurveTest, TimeRelativeToPhaseStart) {
  ipm::Trace t("p", 1);
  t.add(event(100.0, 2.0, OpType::kRead, 0, MiB, 4));
  t.add(event(101.0, 2.0, OpType::kRead, 0, MiB, 4));
  ProgressCurve c = completion_curve(t, {.phase = 4});
  EXPECT_DOUBLE_EQ(c.t[1], 2.0);  // first completion 2 s after phase start
  EXPECT_DOUBLE_EQ(c.t[2], 3.0);
}

TEST(CompletionCurveTest, EmptySelectionGivesEmptyCurve) {
  ProgressCurve c = completion_curve(sample_trace(), {.phase = 99});
  EXPECT_TRUE(c.t.empty());
}

TEST(TraceDiagramTest, DimensionsAndDownsampling) {
  TraceDiagram d(sample_trace(), {.max_rows = 2, .columns = 40});
  EXPECT_EQ(d.rows(), 2u);  // 4 ranks folded into 2 rows
  EXPECT_EQ(d.columns(), 40u);
  EXPECT_NEAR(d.seconds_per_column() * 40.0, 4.0, 1e-9);
}

TEST(TraceDiagramTest, BusyCellsMarked) {
  ipm::Trace t("d", 2);
  t.add(event(0.0, 5.0, OpType::kWrite, 0, MiB));
  t.add(event(5.0, 5.0, OpType::kRead, 1, MiB));
  TraceDiagram d(t, {.max_rows = 2, .columns = 10});
  // Rank 0 writes in the first half.
  EXPECT_GT(d.write_fraction(0, 2), 0.9);
  EXPECT_LT(d.write_fraction(0, 7), 0.1);
  // Rank 1 reads in the second half.
  EXPECT_GT(d.read_fraction(1, 7), 0.9);
  auto lines = d.render();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0][2], '#');
  EXPECT_EQ(lines[1][7], 'o');
  EXPECT_EQ(lines[0][7], ' ');
}

TEST(TraceDiagramTest, IdleFractionDetectsWhitespace) {
  ipm::Trace t("d", 4);
  t.add(event(0.0, 1.0, OpType::kWrite, 0, MiB));
  // Ranks 1-3 never do I/O over a 10 s span.
  t.add(event(9.0, 1.0, OpType::kWrite, 0, MiB));
  TraceDiagram d(t, {.max_rows = 4, .columns = 10});
  EXPECT_GT(d.idle_fraction(), 0.7);
}

TEST(TraceDiagramTest, RenderTextHasRulerAndLegend) {
  std::string text = TraceDiagram(sample_trace(), {.max_rows = 4, .columns = 20})
                         .render_text();
  EXPECT_NE(text.find("0s"), std::string::npos);
  EXPECT_NE(text.find("'#'=write"), std::string::npos);
}

}  // namespace
}  // namespace eio::analysis
