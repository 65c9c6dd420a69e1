// Integration tests: the IOR phenomena of Figures 1-2 at reduced scale.
//
// 256 tasks instead of 1024 keep the suite fast; every assertion is on
// distribution *shape* (mode structure, narrowing, ordering), which is
// scale-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/units.h"
#include "core/distribution.h"
#include "core/ks.h"
#include "core/lln.h"
#include "core/modes.h"
#include "core/rate_series.h"
#include "core/samples.h"
#include "workloads/ior.h"

namespace eio::workloads {
namespace {

IorConfig reduced_ior(std::uint32_t k) {
  IorConfig cfg;
  cfg.tasks = 256;
  cfg.block_size = 128 * MiB;
  cfg.segments = 3;
  cfg.calls_per_block = k;
  return cfg;
}

RunResult run_ior(std::uint32_t k, std::uint64_t seed_offset = 0) {
  lustre::MachineConfig machine = lustre::MachineConfig::franklin();
  machine.seed += seed_offset;
  return run_job(make_ior_job(machine, reduced_ior(k)));
}

TEST(IorIntegrationTest, WriteDurationsShowHarmonicModes) {
  RunResult result = run_ior(1);
  auto writes = analysis::durations(result.trace,
                                    {.op = posix::OpType::kWrite, .min_bytes = MiB});
  ASSERT_EQ(writes.size(), 256u * 3u);
  auto modes = stats::find_modes(writes, {.bandwidth_scale = 0.45});
  ASSERT_GE(modes.size(), 2u) << "expected multi-modal write durations";
  auto matched = stats::harmonic_signature(modes, 0.3);
  // At least the fundamental plus one harmonic (T/2 or T/4).
  EXPECT_TRUE(std::find(matched.begin(), matched.end(), 2) != matched.end() ||
              std::find(matched.begin(), matched.end(), 4) != matched.end())
      << "no harmonic structure in write modes";
  // The fair-share mode (the slowest, largest-mass one) sits near
  // block_size / fair_share_rate.
  double fair_time = static_cast<double>(128 * MiB) /
                     fair_share_rate(lustre::MachineConfig::franklin(), 256);
  double slowest = 0.0;
  for (const auto& m : modes) slowest = std::max(slowest, m.location);
  EXPECT_NEAR(slowest, fair_time, 0.3 * fair_time);
}

TEST(IorIntegrationTest, SlowestModeCarriesMostMass) {
  RunResult result = run_ior(1);
  auto writes = analysis::durations(result.trace,
                                    {.op = posix::OpType::kWrite, .min_bytes = MiB});
  auto modes = stats::find_modes(writes, {.bandwidth_scale = 0.45});
  ASSERT_GE(modes.size(), 2u);
  // In the paper's Figure 1c, the R peak dominates; the faster
  // harmonics carry progressively less mass.
  double slowest_loc = 0.0, slowest_mass = 0.0;
  for (const auto& m : modes) {
    if (m.location > slowest_loc) {
      slowest_loc = m.location;
      slowest_mass = m.mass;
    }
  }
  for (const auto& m : modes) {
    if (m.location < slowest_loc * 0.8) {
      EXPECT_LT(m.mass, slowest_mass);
    }
  }
}

TEST(IorIntegrationTest, SplittingNarrowsPerTaskTotals) {
  std::vector<double> cvs, skews;
  for (std::uint32_t k : {1u, 2u, 4u, 8u}) {
    RunResult result = run_ior(k);
    auto per_call = analysis::per_rank_ordered(
        result.trace, {.op = posix::OpType::kWrite, .min_bytes = MiB},
        static_cast<std::size_t>(k) * 3);
    auto totals = stats::sum_groups(per_call, k);  // per task per job
    stats::Moments m = stats::compute_moments(totals);
    cvs.push_back(m.cv());
    skews.push_back(m.skewness);
  }
  // The distribution of per-task totals narrows in k (the last step
  // can be nearly flat — the paper's k=4 -> k=8 rates are too)...
  for (std::size_t i = 1; i < cvs.size(); ++i) {
    EXPECT_LT(cvs[i], cvs[i - 1] * 1.25) << "cv widened at step " << i;
  }
  // ...and by roughly the LLN amount overall (1/sqrt(8) ~ 0.35).
  EXPECT_LT(cvs.back(), 0.55 * cvs.front());
}

TEST(IorIntegrationTest, SplittingImprovesReportedRate) {
  double prev_rate = 0.0;
  std::vector<double> rates;
  for (std::uint32_t k : {1u, 2u, 4u, 8u}) {
    RunResult result = run_ior(k);
    rates.push_back(result.reported_rate());
  }
  // Paper: 11610 -> 12016 -> 13446 -> 13486 MB/s. We require the
  // monotone improvement and a material k=8 vs k=1 gain.
  prev_rate = rates[0];
  for (std::size_t i = 1; i < rates.size(); ++i) {
    EXPECT_GT(rates[i], prev_rate * 0.995) << "rate regressed at k step " << i;
    prev_rate = std::max(prev_rate, rates[i]);
  }
  EXPECT_GT(rates.back(), 1.05 * rates.front());
}

TEST(IorIntegrationTest, EnsembleDistributionReproducible) {
  // "The statistical representations are almost identical" across runs
  // — two different seeds (the paper's scratch vs scratch2) give small
  // two-sample KS distances. Needs enough nodes that the scheduler-
  // policy mixture fractions concentrate, so run at 512 tasks.
  auto run_once = [](std::uint64_t seed_offset) {
    IorConfig cfg;
    cfg.tasks = 512;
    cfg.block_size = 128 * MiB;
    cfg.segments = 3;
    lustre::MachineConfig machine = lustre::MachineConfig::franklin();
    machine.seed += seed_offset;
    return run_job(make_ior_job(machine, cfg));
  };
  RunResult a = run_once(0);
  RunResult b = run_once(1);
  auto wa = analysis::durations(a.trace, {.op = posix::OpType::kWrite,
                                          .min_bytes = MiB});
  auto wb = analysis::durations(b.trace, {.op = posix::OpType::kWrite,
                                          .min_bytes = MiB});
  stats::KsResult ks = stats::ks_two_sample(wa, wb);
  EXPECT_LT(ks.statistic, 0.15);
  // Yet the specific event sequences differ (different runs).
  EXPECT_NE(a.job_time, b.job_time);
}

TEST(IorIntegrationTest, MomentsStableAcrossRuns) {
  RunResult a = run_ior(1, 0);
  RunResult b = run_ior(1, 2);
  auto wa = analysis::durations(a.trace, {.op = posix::OpType::kWrite,
                                          .min_bytes = MiB});
  auto wb = analysis::durations(b.trace, {.op = posix::OpType::kWrite,
                                          .min_bytes = MiB});
  stats::Moments ma = stats::compute_moments(wa);
  stats::Moments mb = stats::compute_moments(wb);
  EXPECT_NEAR(ma.mean, mb.mean, 0.08 * ma.mean);
  EXPECT_NEAR(ma.stddev, mb.stddev, 0.25 * ma.stddev);
}

TEST(IorIntegrationTest, AggregateRateIntegralMatchesBytes) {
  RunResult result = run_ior(1);
  analysis::TimeSeries series = analysis::aggregate_rate(
      result.trace, {.op = posix::OpType::kWrite, .min_bytes = MiB}, 200);
  EXPECT_NEAR(series.integral(),
              static_cast<double>(result.fs_stats.bytes_written),
              0.02 * static_cast<double>(result.fs_stats.bytes_written));
}

TEST(IorIntegrationTest, PhaseStructureIsSynchronous) {
  // Barriers produce per-segment banding: within each segment, write
  // start times cluster at the segment start.
  RunResult result = run_ior(1);
  const analysis::EventFilter filter{.op = posix::OpType::kWrite,
                                     .phase = IorConfig::write_phase(1),
                                     .min_bytes = MiB};
  std::vector<double> starts;
  result.trace.for_each_columns(
      filter.required_columns() | ipm::kColStart,
      [&](const ipm::ColumnBatch& b) {
        filter.for_each_match(
            b, [&](std::size_t i) { starts.push_back(b.start[i]); });
      });
  ASSERT_EQ(starts.size(), 256u);
  // The same rows, picked by hand.
  std::size_t by_row = 0;
  for (const auto& e : result.trace.events()) {
    by_row += e.op == posix::OpType::kWrite &&
              e.phase == IorConfig::write_phase(1) && e.bytes >= MiB;
  }
  EXPECT_EQ(by_row, starts.size());
  double min_start = 1e300, max_start = 0.0;
  for (double start : starts) {
    min_start = std::min(min_start, start);
    max_start = std::max(max_start, start);
  }
  // All issued within a tight window after the barrier.
  EXPECT_LT(max_start - min_start, 0.1);
}

}  // namespace
}  // namespace eio::workloads
