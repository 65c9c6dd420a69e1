// Tests for the parallel ensemble runner: worker-count resolution,
// exception propagation, and — the load-bearing guarantee — that any
// --jobs value reproduces the serial runner's results byte for byte.
#include "workloads/ensemble.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/units.h"
#include "core/ks.h"
#include "core/samples.h"
#include "workloads/ior.h"

namespace eio::workloads {
namespace {

JobSpec small_ior_job() {
  IorConfig cfg;
  cfg.tasks = 32;
  cfg.block_size = 32 * MiB;
  cfg.segments = 2;
  return make_ior_job(lustre::MachineConfig::franklin(), cfg);
}

std::string serialize(const ipm::Trace& trace) {
  std::ostringstream os;
  trace.write(os);
  return os.str();
}

TEST(ResolveJobsTest, ExplicitValueWins) {
  EXPECT_EQ(resolve_jobs(3), 3u);
  EXPECT_EQ(resolve_jobs(1), 1u);
}

TEST(ResolveJobsTest, EnvOverridesDefault) {
  ::setenv("EIO_JOBS", "7", 1);
  EXPECT_EQ(resolve_jobs(0), 7u);
  ::setenv("EIO_JOBS", "garbage", 1);
  EXPECT_GE(resolve_jobs(0), 1u);  // malformed env falls through
  ::unsetenv("EIO_JOBS");
  EXPECT_GE(resolve_jobs(0), 1u);  // hardware concurrency, at least 1
}

TEST(EnsembleTest, ParallelMatchesSerialByteForByte) {
  JobSpec job = small_ior_job();
  ParallelEnsembleRunner serial({.jobs = 1});
  auto base = serial.run_ensemble(job, 4);
  ASSERT_EQ(base.size(), 4u);

  for (std::size_t jobs : {2u, 4u}) {
    ParallelEnsembleRunner parallel({.jobs = jobs});
    auto got = parallel.run_ensemble(job, 4);
    ASSERT_EQ(got.size(), base.size()) << "jobs=" << jobs;
    for (std::size_t r = 0; r < base.size(); ++r) {
      EXPECT_EQ(got[r].name, base[r].name);
      EXPECT_DOUBLE_EQ(got[r].job_time, base[r].job_time)
          << "jobs=" << jobs << " run=" << r;
      EXPECT_EQ(got[r].engine_events, base[r].engine_events);
      EXPECT_EQ(got[r].fs_stats.bytes_written, base[r].fs_stats.bytes_written);
      EXPECT_EQ(serialize(got[r].trace), serialize(base[r].trace))
          << "jobs=" << jobs << " run=" << r;
    }
  }
}

TEST(EnsembleTest, EveryRunReadsTheJobsOneProgramSet) {
  // The ensemble's per-run specs (seed + r) and the runs built from
  // them share the job's programs: every Runtime reads the same set.
  JobSpec job = small_ior_job();
  const std::size_t runs = 3;
  auto ensemble = run_ensemble(job, runs, 1);
  std::vector<std::unique_ptr<RunInstance>> instances;
  for (std::size_t r = 0; r < runs; ++r) {
    JobSpec spec = job;
    spec.machine.seed = job.machine.seed + r;
    instances.push_back(std::make_unique<RunInstance>(std::move(spec), r));
  }
  for (std::size_t r = 0; r < runs; ++r) {
    EXPECT_EQ(instances[r]->spec().programs.data(), job.programs.data());
    EXPECT_EQ(instances[r]->runtime().programs().data(), job.programs.data());
  }
  for (std::size_t r = 0; r < runs; ++r) {
    EXPECT_DOUBLE_EQ(instances[r]->execute().job_time, ensemble[r].job_time);
  }
}

TEST(EnsembleTest, ParallelMatchesLegacySerialSeedDerivation) {
  // run_ensemble(job, n) historically ran seeds seed, seed+1, ... with
  // names suffixed "#r". The free function must keep that contract.
  JobSpec job = small_ior_job();
  auto runs = run_ensemble(job, 3, 2);
  ASSERT_EQ(runs.size(), 3u);
  for (std::size_t r = 0; r < runs.size(); ++r) {
    EXPECT_EQ(runs[r].name, job.name + "#" + std::to_string(r));
    // Each run individually matches a fresh serial run at its seed.
    JobSpec solo = job;
    solo.machine.seed = job.machine.seed + r;
    RunResult expect = run_job(solo);
    EXPECT_DOUBLE_EQ(runs[r].job_time, expect.job_time) << "run " << r;
    EXPECT_EQ(serialize(runs[r].trace), serialize(expect.trace)) << "run " << r;
  }
}

TEST(EnsembleTest, KsStatisticsIdenticalAcrossJobCounts) {
  JobSpec job = small_ior_job();
  auto serial = run_ensemble(job, 2, 1);
  auto parallel = run_ensemble(job, 2, 4);
  analysis::EventFilter writes{.op = posix::OpType::kWrite, .min_bytes = MiB};
  stats::KsResult ks_serial =
      stats::ks_two_sample(analysis::durations(serial[0].trace, writes),
                           analysis::durations(serial[1].trace, writes));
  stats::KsResult ks_parallel =
      stats::ks_two_sample(analysis::durations(parallel[0].trace, writes),
                           analysis::durations(parallel[1].trace, writes));
  EXPECT_DOUBLE_EQ(ks_serial.statistic, ks_parallel.statistic);
  EXPECT_DOUBLE_EQ(ks_serial.p_value, ks_parallel.p_value);
}

TEST(EnsembleTest, RunJobsPreservesInputOrder) {
  // Distinct specs with distinct names; results must come back in
  // submission order regardless of which worker finished first.
  std::vector<JobSpec> specs;
  for (int i = 0; i < 5; ++i) {
    JobSpec s = small_ior_job();
    s.name = "spec" + std::to_string(i);
    s.machine.seed += static_cast<std::uint64_t>(i) * 101;
    specs.push_back(std::move(s));
  }
  auto results = run_jobs(specs, 3);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(results[i].name, specs[i].name);
  }
}

TEST(EnsembleTest, WorkerExceptionPropagates) {
  std::vector<JobSpec> specs(3);  // no programs -> EIO_CHECK throws
  ParallelEnsembleRunner runner({.jobs = 2});
  EXPECT_THROW(runner.run_jobs(specs), std::logic_error);
}

TEST(EnsembleTest, FailureStopsClaimingAndReportsTheLowestFailedRun) {
  // Runs 1 and 3 fail as they start; the others take milliseconds. No
  // worker may claim a run once one has failed, and the error rethrown
  // is run 1's — the one the serial loop stops at.
  for (std::size_t jobs : {2u, 4u}) {
    std::atomic<std::size_t> started_after_run1{0};
    std::vector<JobSpec> specs(12, small_ior_job());
    for (JobSpec& spec : specs) {
      spec.sink_factory = [&started_after_run1](std::size_t run)
          -> std::shared_ptr<ipm::EventSink> {
        if (run > 1) started_after_run1.fetch_add(1);
        if (run == 1) throw std::runtime_error("run 1 failed");
        if (run == 3) throw std::runtime_error("run 3 failed");
        return nullptr;
      };
    }
    ParallelEnsembleRunner runner({.jobs = jobs});
    try {
      (void)runner.run_jobs(specs);
      ADD_FAILURE() << "jobs=" << jobs << ": no error rethrown";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "run 1 failed") << "jobs=" << jobs;
    }
    EXPECT_LE(started_after_run1.load(), jobs) << "jobs=" << jobs;
  }
}

TEST(EnsembleTest, ZeroRunsRejected) {
  ParallelEnsembleRunner runner({.jobs = 2});
  EXPECT_THROW(runner.run_ensemble(small_ior_job(), 0), std::logic_error);
}

TEST(EnsembleTest, MoreWorkersThanRunsIsFine) {
  auto runs = run_ensemble(small_ior_job(), 2, 16);
  EXPECT_EQ(runs.size(), 2u);
}

}  // namespace
}  // namespace eio::workloads
