// Unit tests for linear and log histograms.
#include "core/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace eio::stats {
namespace {

TEST(HistogramTest, LinearBinningBasics) {
  Histogram h(BinScale::kLinear, 0.0, 10.0, 10);
  h.add(0.5);
  h.add(5.5);
  h.add(9.999);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_DOUBLE_EQ(h.bin_lower(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_upper(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_width(3), 1.0);
}

TEST(HistogramTest, OutOfRangeClampsAndCounts) {
  Histogram h(BinScale::kLinear, 0.0, 10.0, 10);
  h.add(-5.0);
  h.add(50.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 2u);
}

TEST(HistogramTest, WeightedAdd) {
  Histogram h(BinScale::kLinear, 0.0, 1.0, 2);
  h.add(0.25, 7);
  EXPECT_EQ(h.count(0), 7u);
  EXPECT_EQ(h.total(), 7u);
}

TEST(HistogramTest, LogBinningCoversDecades) {
  Histogram h(BinScale::kLog10, 0.1, 1000.0, 8);  // 4 decades, 2 bins each
  h.add(0.15);
  h.add(1.5);
  h.add(15.0);
  h.add(150.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(4), 1u);
  EXPECT_EQ(h.count(6), 1u);
  // Geometric bin center of [0.1, 10^-0.5): sqrt(0.1 * 0.3162) = 0.1778.
  EXPECT_NEAR(h.bin_center(0), 0.17783, 1e-4);
  EXPECT_GT(h.bin_width(7), h.bin_width(0));  // widths grow on a log axis
}

TEST(HistogramTest, LogBinningRejectsNonPositiveLo) {
  EXPECT_THROW(Histogram(BinScale::kLog10, 0.0, 10.0, 4), std::logic_error);
  EXPECT_THROW(Histogram(BinScale::kLog10, -1.0, 10.0, 4), std::logic_error);
}

TEST(HistogramTest, InvalidConstruction) {
  EXPECT_THROW(Histogram(BinScale::kLinear, 0.0, 10.0, 0), std::logic_error);
  EXPECT_THROW(Histogram(BinScale::kLinear, 5.0, 5.0, 4), std::logic_error);
}

TEST(HistogramTest, FromSamplesContainsAllSamples) {
  std::vector<double> samples{1.0, 2.0, 3.0, 4.0, 100.0};
  Histogram h = Histogram::from_samples(samples, BinScale::kLinear, 16);
  EXPECT_EQ(h.total(), samples.size());
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
}

TEST(HistogramTest, FromSamplesConstantInput) {
  std::vector<double> samples(10, 3.0);
  Histogram h = Histogram::from_samples(samples, BinScale::kLinear, 4);
  EXPECT_EQ(h.total(), 10u);
  Histogram hl = Histogram::from_samples(samples, BinScale::kLog10, 4);
  EXPECT_EQ(hl.total(), 10u);
}

TEST(HistogramTest, FromSamplesEmptyThrows) {
  std::vector<double> none;
  EXPECT_THROW((void)Histogram::from_samples(none, BinScale::kLinear, 4),
               std::logic_error);
}

TEST(HistogramTest, MergeRequiresIdenticalBinning) {
  Histogram a(BinScale::kLinear, 0.0, 10.0, 10);
  Histogram b(BinScale::kLinear, 0.0, 10.0, 10);
  Histogram c(BinScale::kLinear, 0.0, 20.0, 10);
  a.add(1.0);
  b.add(1.0);
  b.add(9.0);
  a.merge(b);
  EXPECT_EQ(a.count(1), 2u);
  EXPECT_EQ(a.total(), 3u);
  EXPECT_THROW(a.merge(c), std::logic_error);
}

TEST(HistogramTest, BinIndexMonotone) {
  Histogram h(BinScale::kLog10, 0.001, 1000.0, 60);
  std::size_t prev = 0;
  for (double v = 0.001; v < 1000.0; v *= 1.3) {
    std::size_t idx = h.bin_index(v);
    EXPECT_GE(idx, prev);
    prev = idx;
  }
}

// ---------------------------------------------------------------------------
// StreamingHistogram: the single-pass mergeable kernel behind the
// histogram subcommand and the fused analyze bundle.

std::vector<double> lcg_samples(std::size_t n, double scale) {
  std::vector<double> xs(n);
  std::uint64_t s = 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = 0; i < n; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    xs[i] = scale * (1e-6 + static_cast<double>(s >> 40) * 1e-6);
  }
  return xs;
}

TEST(StreamingHistogramTest, ExactModeMatchesFromSamplesBitForBit) {
  // While the matched count fits the exact buffer, materialize() must
  // reproduce the historical two-pass from_samples binning exactly —
  // this is what keeps every pre-existing histogram output stable.
  auto xs = lcg_samples(5000, 2.0);
  for (BinScale scale : {BinScale::kLinear, BinScale::kLog10}) {
    StreamingHistogram sh({.scale = scale, .bins = 40});
    for (double x : xs) sh.add(x);
    ASSERT_TRUE(sh.exact());
    auto h = sh.materialize();
    ASSERT_TRUE(h.has_value());
    Histogram batch = Histogram::from_samples(xs, scale, 40);
    EXPECT_DOUBLE_EQ(h->lo(), batch.lo());
    EXPECT_DOUBLE_EQ(h->hi(), batch.hi());
    EXPECT_EQ(h->counts(), batch.counts());
    EXPECT_EQ(h->underflow(), batch.underflow());
    EXPECT_EQ(h->overflow(), batch.overflow());
  }
}

TEST(StreamingHistogramTest, ExactModeMergeMatchesSingleInstance) {
  auto xs = lcg_samples(3000, 5.0);
  for (BinScale scale : {BinScale::kLinear, BinScale::kLog10}) {
    StreamingHistogram whole({.scale = scale, .bins = 32});
    whole.add_batch(xs);

    StreamingHistogram left({.scale = scale, .bins = 32});
    StreamingHistogram right({.scale = scale, .bins = 32});
    left.add_batch(std::span<const double>(xs).first(1100));
    right.add_batch(std::span<const double>(xs).subspan(1100));
    left.merge(std::move(right));

    auto a = whole.materialize();
    auto b = left.materialize();
    ASSERT_TRUE(a && b);
    EXPECT_DOUBLE_EQ(b->lo(), a->lo());
    EXPECT_DOUBLE_EQ(b->hi(), a->hi());
    EXPECT_EQ(b->counts(), a->counts());
  }
}

TEST(StreamingHistogramTest, EmptyMaterializesToNullopt) {
  StreamingHistogram sh;
  EXPECT_EQ(sh.count(), 0u);
  EXPECT_FALSE(sh.materialize().has_value());
}

TEST(StreamingHistogramTest, LatticeModePreservesCountAndExtent) {
  // Past the exact buffer the kernel spills to the power-of-two
  // lattice; totals and coverage must survive the spill.
  auto xs = lcg_samples(4000, 3.0);
  for (BinScale scale : {BinScale::kLinear, BinScale::kLog10}) {
    StreamingHistogram sh({.scale = scale, .bins = 24, .exact_capacity = 64});
    sh.add_batch(xs);
    EXPECT_FALSE(sh.exact());
    EXPECT_EQ(sh.count(), xs.size());
    auto h = sh.materialize();
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->total(), xs.size());
    EXPECT_EQ(h->underflow(), 0u);
    EXPECT_EQ(h->overflow(), 0u);
    EXPECT_LE(h->bin_count(), 24u);
    double lo = xs[0], hi = xs[0];
    for (double x : xs) {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
    EXPECT_LE(h->lo(), lo);
    EXPECT_GE(h->hi(), hi);
  }
}

TEST(StreamingHistogramTest, LatticeModeIsMergeOrderIndependent) {
  // The lattice resolution is a pure function of the value multiset,
  // so any chunking/merging order must land on identical bins — this
  // is the determinism contract the --jobs invariance rests on.
  auto xs = lcg_samples(6000, 7.0);
  for (BinScale scale : {BinScale::kLinear, BinScale::kLog10}) {
    const StreamingHistogram::Options opt{
        .scale = scale, .bins = 20, .exact_capacity = 32};
    StreamingHistogram serial(opt);
    serial.add_batch(xs);

    // Three-way uneven split, merged both left-to-right and
    // right-to-left.
    auto part = [&](std::size_t a, std::size_t b) {
      StreamingHistogram p(opt);
      p.add_batch(std::span<const double>(xs).subspan(a, b - a));
      return p;
    };
    StreamingHistogram ltr = part(0, 100);
    ltr.merge(part(100, 4000));
    ltr.merge(part(4000, xs.size()));

    StreamingHistogram rtl = part(4000, xs.size());
    rtl.merge(part(100, 4000));
    rtl.merge(part(0, 100));

    auto hs = serial.materialize();
    auto hl = ltr.materialize();
    auto hr = rtl.materialize();
    ASSERT_TRUE(hs && hl && hr);
    EXPECT_DOUBLE_EQ(hl->lo(), hs->lo());
    EXPECT_DOUBLE_EQ(hl->hi(), hs->hi());
    EXPECT_EQ(hl->counts(), hs->counts());
    EXPECT_DOUBLE_EQ(hr->lo(), hs->lo());
    EXPECT_EQ(hr->counts(), hs->counts());
  }
}

TEST(StreamingHistogramTest, MixedExactAndLatticeMergeKeepsEverything) {
  auto xs = lcg_samples(2000, 1.0);
  const StreamingHistogram::Options opt{
      .scale = BinScale::kLinear, .bins = 16, .exact_capacity = 128};
  StreamingHistogram big(opt);
  big.add_batch(std::span<const double>(xs).first(1900));  // spills
  StreamingHistogram small(opt);
  small.add_batch(std::span<const double>(xs).subspan(1900));  // 100: exact
  ASSERT_FALSE(big.exact());
  ASSERT_TRUE(small.exact());
  big.merge(std::move(small));
  EXPECT_EQ(big.count(), xs.size());
  auto h = big.materialize();
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->total(), xs.size());
}

TEST(StreamingHistogramTest, RejectsDegenerateOptions) {
  EXPECT_THROW(StreamingHistogram({.bins = 1}), std::logic_error);
  EXPECT_THROW(StreamingHistogram({.exact_capacity = 0}), std::logic_error);
}

}  // namespace
}  // namespace eio::stats
