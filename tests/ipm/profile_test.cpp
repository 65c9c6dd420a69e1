// Unit tests for the in-situ profiling mode (histogram-only capture).
#include "ipm/profile.h"

#include <gtest/gtest.h>

#include <cmath>

namespace eio::ipm {
namespace {

using posix::OpType;

TEST(DurationBinsTest, IndexAndEdgesConsistent) {
  for (int bin = 0; bin < DurationBins::kBinCount; ++bin) {
    Seconds center = DurationBins::center(bin);
    EXPECT_EQ(DurationBins::index(center), bin);
    EXPECT_GT(center, DurationBins::lower_edge(bin));
    if (bin + 1 < DurationBins::kBinCount) {
      EXPECT_LT(center, DurationBins::lower_edge(bin + 1));
    }
  }
}

TEST(DurationBinsTest, ClampsOutOfRange) {
  EXPECT_EQ(DurationBins::index(0.0), 0);
  EXPECT_EQ(DurationBins::index(1e-9), 0);
  EXPECT_EQ(DurationBins::index(1e12), DurationBins::kBinCount - 1);
}

TEST(ProfileTest, SizeBucketsArePowersOfTwo) {
  EXPECT_EQ(Profile::size_bucket(0), 0u);
  EXPECT_EQ(Profile::size_bucket(1), 1u);
  EXPECT_EQ(Profile::size_bucket(2), 2u);
  EXPECT_EQ(Profile::size_bucket(1024), 11u);
  EXPECT_EQ(Profile::size_bucket(1025), 11u);
  EXPECT_EQ(Profile::size_bucket(2048), 12u);
}

TEST(ProfileTest, ObserveCounts) {
  Profile p;
  p.observe(OpType::kWrite, 1024, 0.5);
  p.observe(OpType::kWrite, 1024, 0.6);
  p.observe(OpType::kRead, 1024, 0.5);
  EXPECT_EQ(p.total(), 3u);
  EXPECT_EQ(p.count(OpType::kWrite), 2u);
  EXPECT_EQ(p.count(OpType::kRead), 1u);
  EXPECT_EQ(p.count(OpType::kSeek), 0u);
}

TEST(ProfileTest, DistributionReconstructsWeights) {
  Profile p;
  for (int i = 0; i < 10; ++i) p.observe(OpType::kWrite, 100, 1.0);
  for (int i = 0; i < 5; ++i) p.observe(OpType::kWrite, 100, 100.0);
  auto dist = p.distribution(OpType::kWrite);
  ASSERT_EQ(dist.size(), 2u);
  EXPECT_EQ(dist[0].count, 10u);
  EXPECT_NEAR(dist[0].duration, 1.0, 0.2);
  EXPECT_EQ(dist[1].count, 5u);
  EXPECT_NEAR(dist[1].duration, 100.0, 20.0);
}

TEST(ProfileTest, ApproximateMeanWithinBinResolution) {
  Profile p;
  // All mass at 2.0 s: the approximation error is bounded by the bin
  // width (10^(1/8) ≈ 1.33x).
  for (int i = 0; i < 100; ++i) p.observe(OpType::kRead, 4096, 2.0);
  double mean = p.approximate_mean(OpType::kRead);
  EXPECT_GT(mean, 2.0 / 1.35);
  EXPECT_LT(mean, 2.0 * 1.35);
}

TEST(ProfileTest, CellsSeparateSizeBuckets) {
  Profile p;
  p.observe(OpType::kWrite, 1 * 1024, 1.0);
  p.observe(OpType::kWrite, 1024 * 1024, 1.0);
  EXPECT_EQ(p.cells().size(), 2u);
  const auto& bins =
      p.cells().at(Profile::Key{OpType::kWrite, Profile::size_bucket(1024)});
  EXPECT_EQ(bins[static_cast<std::size_t>(DurationBins::index(1.0))], 1u);
}

TEST(ProfileTest, EmptyDistribution) {
  Profile p;
  EXPECT_TRUE(p.distribution(OpType::kWrite).empty());
  EXPECT_EQ(p.approximate_mean(OpType::kWrite), 0.0);
}

}  // namespace
}  // namespace eio::ipm
