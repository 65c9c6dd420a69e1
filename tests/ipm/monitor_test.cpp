// Unit tests for the IPM-I/O monitor: interception, phase tagging,
// capture modes, and overhead accounting.
#include "ipm/monitor.h"

#include <gtest/gtest.h>

#include "common/units.h"
#include "lustre/filesystem.h"
#include "posix/vfs.h"
#include "sim/run_context.h"

namespace eio::ipm {
namespace {

lustre::MachineConfig quiet_machine() {
  lustre::MachineConfig m;
  m.nic_bandwidth = 1e9;
  m.ost_count = 2;
  m.ost_bandwidth = 100.0 * MiB;
  m.node_policy = sim::ConcurrencyPolicy::fixed(4);
  m.contention = {};
  m.strided_readahead_bug = false;
  m.service_noise_sigma = 0.0;
  m.straggler_probability = 0.0;
  m.syscall_latency = 0.0;
  return m;
}

struct Env {
  sim::RunContext run{quiet_machine().seed};
  sim::Engine& engine = run.engine();
  lustre::Filesystem fs;
  posix::PosixIo io;

  Env() : fs(run, quiet_machine(), 1), io(run, fs, 4) {}

  void run_small_job(RankId rank = 0) {
    io.open(rank, "f", posix::kCreate, [&, rank](Fd fd) {
      io.write(rank, fd, 10 * MiB, [&, rank, fd](std::int64_t) {
        io.lseek(rank, fd, 0, posix::Whence::kSet, [&, rank, fd](std::int64_t) {
          io.read(rank, fd, 10 * MiB, [&, rank, fd](std::int64_t) {
            io.close(rank, fd, [](int) {});
          });
        });
      });
    });
    engine.run();
  }
};

TEST(MonitorTest, TraceModeRecordsAllCalls) {
  Env env;
  Monitor monitor(Monitor::Config{});
  monitor.attach(env.io);
  env.run_small_job();
  // open, write, seek, read, close.
  EXPECT_EQ(monitor.intercepted(), 5u);
  ASSERT_EQ(monitor.trace().size(), 5u);
  EXPECT_EQ(monitor.trace().events()[1].op, posix::OpType::kWrite);
  EXPECT_EQ(monitor.trace().events()[1].bytes, 10 * MiB);
  EXPECT_EQ(monitor.profile().total(), 0u);  // trace mode only
}

TEST(MonitorTest, ProfileModeKeepsOnlyHistograms) {
  Env env;
  Monitor monitor(Monitor::Config{.mode = Mode::kProfile});
  monitor.attach(env.io);
  env.run_small_job();
  EXPECT_TRUE(monitor.trace().empty());
  EXPECT_EQ(monitor.profile().total(), 5u);
  EXPECT_EQ(monitor.profile().count(posix::OpType::kWrite), 1u);
}

TEST(MonitorTest, BothModeAgrees) {
  Env env;
  Monitor monitor(Monitor::Config{.mode = Mode::kBoth});
  monitor.attach(env.io);
  env.run_small_job();
  EXPECT_EQ(monitor.trace().size(), monitor.profile().total());
}

TEST(MonitorTest, MetadataCallsCanBeExcluded) {
  Env env;
  Monitor monitor(Monitor::Config{.record_metadata_calls = false});
  monitor.attach(env.io);
  env.run_small_job();
  EXPECT_EQ(monitor.trace().size(), 2u);  // write + read only
  EXPECT_EQ(monitor.intercepted(), 5u);   // still intercepted
}

TEST(MonitorTest, PhaseTagsSubsequentEvents) {
  Env env;
  Monitor monitor(Monitor::Config{});
  monitor.attach(env.io);
  monitor.set_phase(0, 42);
  env.run_small_job();
  for (const TraceEvent& e : monitor.trace().events()) {
    EXPECT_EQ(e.phase, 42);
  }
  monitor.set_phase(0, 43);
  env.run_small_job();  // fails open (exists) but records events anyway
  EXPECT_EQ(monitor.trace().events().back().phase, 43);
}

TEST(MonitorTest, PhaseDefaultsToZeroForUntaggedRanks) {
  Env env;
  Monitor monitor(Monitor::Config{});
  monitor.attach(env.io);
  monitor.set_phase(2, 9);  // a different rank
  env.run_small_job(0);
  EXPECT_EQ(monitor.trace().events()[0].phase, 0);
}

TEST(MonitorTest, OverheadAccountingScalesWithEvents) {
  Env env;
  Monitor monitor(Monitor::Config{.per_event_overhead = us(2.0)});
  monitor.attach(env.io);
  env.run_small_job();
  EXPECT_DOUBLE_EQ(monitor.accounted_overhead(), 5 * us(2.0));
  // The lightweight claim: overhead is negligible next to the job.
  EXPECT_LT(monitor.accounted_overhead(), 0.01 * env.engine.now());
}

TEST(MonitorTest, DetachStopsRecording) {
  Env env;
  Monitor monitor(Monitor::Config{});
  monitor.attach(env.io);
  env.run_small_job();
  std::size_t before = monitor.trace().size();
  monitor.detach();
  env.run_small_job();
  EXPECT_EQ(monitor.trace().size(), before);
}

TEST(MonitorTest, DoubleAttachThrows) {
  Env env;
  Monitor monitor(Monitor::Config{});
  monitor.attach(env.io);
  EXPECT_THROW(monitor.attach(env.io), std::logic_error);
}

TEST(MonitorTest, ProfileMatchesTraceMoments) {
  // The future-work claim: the profile preserves the distribution well
  // enough to analyze. Mean-from-profile must be within one bin width
  // of mean-from-trace.
  Env env;
  Monitor monitor(Monitor::Config{.mode = Mode::kBoth});
  monitor.attach(env.io);
  for (int i = 0; i < 20; ++i) env.run_small_job();
  double trace_mean = 0.0;
  std::size_t n = 0;
  for (const TraceEvent& e : monitor.trace().events()) {
    if (e.op == posix::OpType::kWrite) {
      trace_mean += e.duration;
      ++n;
    }
  }
  trace_mean /= static_cast<double>(n);
  double profile_mean = monitor.profile().approximate_mean(posix::OpType::kWrite);
  EXPECT_GT(profile_mean, trace_mean / 1.35);
  EXPECT_LT(profile_mean, trace_mean * 1.35);
}

}  // namespace
}  // namespace eio::ipm
