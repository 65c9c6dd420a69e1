// Unit tests for the MPI-like runtime: program execution, barriers,
// gather groups, and completion accounting.
#include "mpi/runtime.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/units.h"
#include "lustre/filesystem.h"
#include "posix/vfs.h"
#include "sim/run_context.h"

namespace eio::mpi {
namespace {

lustre::MachineConfig quiet_machine() {
  lustre::MachineConfig m;
  m.tasks_per_node = 4;
  m.nic_bandwidth = 1e9;
  m.ost_count = 2;
  m.ost_bandwidth = 100.0 * MiB;
  m.node_policy = sim::ConcurrencyPolicy::fixed(4);
  m.contention = {};
  m.strided_readahead_bug = false;
  m.service_noise_sigma = 0.0;
  m.straggler_probability = 0.0;
  m.rmw_inflation = 0.0;
  m.lock_latency_per_boundary = 0.0;
  m.syscall_latency = 0.0;
  return m;
}

struct Env {
  sim::RunContext run{quiet_machine().seed};
  sim::Engine& engine = run.engine();
  lustre::Filesystem fs;
  posix::PosixIo io;
  Runtime runtime;

  explicit Env(std::uint32_t nodes = 2, CollectiveCosts costs = {})
      : fs(run, quiet_machine(), nodes), io(run, fs, 4),
        runtime(run, io, costs) {}
};

TEST(RuntimeTest, SingleRankRunsToCompletion) {
  Env env;
  Program p;
  p.open(0, "f").write(0, 100 * MiB).close(0);
  env.runtime.load({p});
  Seconds t = env.runtime.run_to_completion();
  EXPECT_TRUE(env.runtime.all_done());
  // 100 MiB on one OST (default stripe count) at 100 MiB/s.
  EXPECT_NEAR(t, 1.0, 0.01);
  EXPECT_NEAR(env.runtime.finish_time(0), t, 1e-12);
}

TEST(RuntimeTest, ComputeAdvancesTime) {
  Env env;
  Program p;
  p.compute(3.5);
  env.runtime.load({p});
  EXPECT_NEAR(env.runtime.run_to_completion(), 3.5, 1e-9);
}

TEST(RuntimeTest, BarrierHoldsFastRanks) {
  Env env;
  Program fast;
  fast.barrier();
  Program slow;
  slow.compute(10.0).barrier();
  env.runtime.load({fast, slow});
  Seconds t = env.runtime.run_to_completion();
  EXPECT_GE(t, 10.0);
  // The fast rank cannot finish before the slow one reaches the barrier.
  EXPECT_GE(env.runtime.finish_time(0), 10.0);
}

TEST(RuntimeTest, MultipleBarriersStayInLockstep) {
  Env env;
  std::vector<Program> programs;
  for (int r = 0; r < 4; ++r) {
    Program p;
    p.compute(r * 0.5).barrier().compute(1.0).barrier();
    programs.push_back(std::move(p));
  }
  env.runtime.load(std::move(programs));
  Seconds t = env.runtime.run_to_completion();
  // Slowest pre-barrier leg is 1.5s; then 1.0s more.
  EXPECT_NEAR(t, 2.5, 0.01);
}

TEST(RuntimeTest, PhaseHookFires) {
  Env env;
  std::vector<std::pair<RankId, std::int32_t>> seen;
  env.runtime.set_phase_hook(
      [&](RankId r, std::int32_t p) { seen.emplace_back(r, p); });
  Program p;
  p.phase(7).compute(0.1).phase(8);
  env.runtime.load({p, p});
  env.runtime.run_to_completion();
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0].second, 7);
}

TEST(RuntimeTest, SeekReadWriteSequence) {
  Env env;
  Program writer;
  writer.open(0, "data").seek(0, 0).write(0, 10 * MiB).barrier()
      .seek(0, 0).read(0, 10 * MiB).close(0);
  Program other;
  other.open(0, "data").barrier().close(0);
  env.runtime.load({writer, other});
  env.runtime.run_to_completion();
  EXPECT_EQ(env.fs.stats().writes, 1u);
  EXPECT_EQ(env.fs.stats().reads, 1u);
  EXPECT_EQ(env.fs.size(env.fs.lookup("data")), 10 * MiB);
}

TEST(RuntimeTest, GatherReleasesRootAfterLeaves) {
  CollectiveCosts costs;
  costs.gather_hop_latency = ms(1.0);
  costs.gather_bandwidth = 100.0 * MiB;
  Env env(2, costs);
  std::vector<Program> programs;
  for (int r = 0; r < 4; ++r) {
    Program p;
    p.gather(/*group_size=*/4, /*bytes_per_rank=*/100 * MiB);
    programs.push_back(std::move(p));
  }
  env.runtime.load(std::move(programs));
  env.runtime.run_to_completion();
  // Leaves: tree latency + their own payload handoff = ~1s + 2ms.
  // Root: absorbs 3 payloads = ~3s.
  Seconds leaf = env.runtime.finish_time(1);
  Seconds root = env.runtime.finish_time(0);
  EXPECT_NEAR(leaf, 1.002, 0.01);
  EXPECT_NEAR(root, 3.002, 0.01);
}

TEST(RuntimeTest, GatherPartialFinalGroup) {
  Env env;
  std::vector<Program> programs;
  for (int r = 0; r < 6; ++r) {  // groups of 4: {0..3}, {4,5}
    Program p;
    p.gather(4, 1 * MiB);
    programs.push_back(std::move(p));
  }
  env.runtime.load(std::move(programs));
  env.runtime.run_to_completion();
  EXPECT_TRUE(env.runtime.all_done());
}

TEST(RuntimeTest, RepeatedGathersReuseGroups) {
  Env env;
  std::vector<Program> programs;
  for (int r = 0; r < 4; ++r) {
    Program p;
    p.gather(2, 1 * MiB).gather(2, 1 * MiB).gather(2, 1 * MiB);
    programs.push_back(std::move(p));
  }
  env.runtime.load(std::move(programs));
  env.runtime.run_to_completion();
  EXPECT_TRUE(env.runtime.all_done());
}

TEST(RuntimeTest, StartTwiceThrows) {
  Env env;
  Program p;
  p.compute(1.0);
  env.runtime.load({p});
  env.runtime.start();
  EXPECT_THROW(env.runtime.start(), std::logic_error);
}

TEST(RuntimeTest, FinishTimeBeforeDoneThrows) {
  Env env;
  Program p;
  p.compute(1.0);
  env.runtime.load({p});
  EXPECT_THROW((void)env.runtime.finish_time(0), std::logic_error);
}

TEST(RuntimeTest, LoadResetsState) {
  Env env;
  Program p;
  p.compute(1.0);
  env.runtime.load({p});
  env.runtime.run_to_completion();
  env.runtime.load({p, p});
  EXPECT_EQ(env.runtime.rank_count(), 2u);
  EXPECT_FALSE(env.runtime.all_done());
  env.runtime.run_to_completion();
  EXPECT_TRUE(env.runtime.all_done());
}

TEST(RuntimeTest, EmptyProgramFinishesImmediately) {
  Env env;
  env.runtime.load({Program{}});
  EXPECT_NEAR(env.runtime.run_to_completion(), 0.0, 1e-9);
}

TEST(RuntimeTest, ProgramBuilderComposes) {
  Program p;
  p.open(1, "x").seek(1, 5).write(1, 10).read(1, 10).barrier()
      .compute(1.0).phase(3).gather(2, 100).close(1);
  EXPECT_EQ(p.size(), 9u);
  EXPECT_FALSE(p.empty());
}

}  // namespace
}  // namespace eio::mpi
