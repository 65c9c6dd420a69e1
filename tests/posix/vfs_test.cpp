// Unit tests for the POSIX-like layer: descriptor semantics, offsets,
// error returns, and observer notification.
#include "posix/vfs.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/units.h"
#include "lustre/filesystem.h"
#include "sim/run_context.h"

namespace eio::posix {
namespace {

lustre::MachineConfig tiny_machine() {
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

struct Recorder : IoObserver {
  std::vector<CallRecord> calls;
  void on_call(const CallRecord& record) override { calls.push_back(record); }
};

struct Env {
  sim::RunContext run;
  sim::Engine& engine = run.engine();
  lustre::Filesystem fs;
  PosixIo io;
  Recorder recorder;

  explicit Env(const lustre::MachineConfig& m = tiny_machine())
      : run(m.seed), fs(run, m, 2), io(run, fs, 4) {
    io.add_observer(&recorder);
  }

  Fd open_now(RankId rank, const std::string& path, std::uint32_t flags) {
    Fd result = -2;
    io.open(rank, path, flags, [&](Fd fd) { result = fd; });
    engine.run();
    return result;
  }
};

TEST(VfsTest, OpenCreateAssignsFdsFromThree) {
  Env env;
  EXPECT_EQ(env.open_now(0, "a", kCreate), 3);
  EXPECT_EQ(env.open_now(0, "b", kCreate), 4);
  EXPECT_EQ(env.open_now(1, "a", kRdOnly), 3);  // per-rank numbering
  EXPECT_EQ(env.io.open_fd_count(), 3u);
}

TEST(VfsTest, OpenMissingWithoutCreateFails) {
  Env env;
  EXPECT_EQ(env.open_now(0, "nope", kRdOnly), -1);
}

TEST(VfsTest, SetstripeControlsLayout) {
  Env env;
  env.io.setstripe("wide", {.stripe_count = 2, .shared = true});
  (void)env.open_now(0, "wide", kCreate);
  EXPECT_EQ(env.fs.layout(env.fs.lookup("wide")).stripe_count, 2u);
}

TEST(VfsTest, SetstripeAfterCreationThrows) {
  Env env;
  (void)env.open_now(0, "f", kCreate);
  EXPECT_THROW(env.io.setstripe("f", {}), std::logic_error);
}

TEST(VfsTest, WriteAdvancesPositionAndSetsSize) {
  Env env;
  Fd fd = env.open_now(0, "f", kCreate);
  std::int64_t wrote = -1;
  env.io.write(0, fd, 4 * MiB, [&](std::int64_t n) { wrote = n; });
  env.engine.run();
  EXPECT_EQ(wrote, static_cast<std::int64_t>(4 * MiB));
  EXPECT_EQ(env.fs.size(env.fs.lookup("f")), 4 * MiB);
  // Second write continues from the new position.
  env.io.write(0, fd, 1 * MiB, [](std::int64_t) {});
  env.engine.run();
  EXPECT_EQ(env.fs.size(env.fs.lookup("f")), 5 * MiB);
}

TEST(VfsTest, LseekSetCurEnd) {
  Env env;
  Fd fd = env.open_now(0, "f", kCreate);
  env.io.write(0, fd, 8 * MiB, [](std::int64_t) {});
  env.engine.run();
  std::int64_t pos = -1;
  env.io.lseek(0, fd, 2 * MiB, Whence::kSet, [&](std::int64_t p) { pos = p; });
  env.engine.run();
  EXPECT_EQ(pos, static_cast<std::int64_t>(2 * MiB));
  env.io.lseek(0, fd, 1 * MiB, Whence::kCur, [&](std::int64_t p) { pos = p; });
  env.engine.run();
  EXPECT_EQ(pos, static_cast<std::int64_t>(3 * MiB));
  env.io.lseek(0, fd, -1 * static_cast<std::int64_t>(MiB), Whence::kEnd,
               [&](std::int64_t p) { pos = p; });
  env.engine.run();
  EXPECT_EQ(pos, static_cast<std::int64_t>(7 * MiB));
}

TEST(VfsTest, LseekBeforeZeroFails) {
  Env env;
  Fd fd = env.open_now(0, "f", kCreate);
  std::int64_t pos = 0;
  env.io.lseek(0, fd, -5, Whence::kSet, [&](std::int64_t p) { pos = p; });
  env.engine.run();
  EXPECT_EQ(pos, -1);
}

TEST(VfsTest, ReadClampsAtEof) {
  Env env;
  Fd fd = env.open_now(0, "f", kCreate);
  env.io.write(0, fd, 3 * MiB, [](std::int64_t) {});
  env.engine.run();
  env.io.lseek(0, fd, 2 * MiB, Whence::kSet, [](std::int64_t) {});
  std::int64_t got = -1;
  env.io.read(0, fd, 10 * MiB, [&](std::int64_t n) { got = n; });
  env.engine.run();
  EXPECT_EQ(got, static_cast<std::int64_t>(1 * MiB));  // short read
  env.io.read(0, fd, 1 * MiB, [&](std::int64_t n) { got = n; });
  env.engine.run();
  EXPECT_EQ(got, 0);  // at EOF
}

TEST(VfsTest, OperationsOnBadFdFail) {
  Env env;
  std::int64_t n = 0;
  int rc = 0;
  env.io.read(0, 42, 100, [&](std::int64_t v) { n = v; });
  env.io.close(0, 42, [&](int v) { rc = v; });
  env.engine.run();
  EXPECT_EQ(n, -1);
  EXPECT_EQ(rc, -1);
}

TEST(VfsTest, CloseRemovesFd) {
  Env env;
  Fd fd = env.open_now(0, "f", kCreate);
  int rc = -2;
  env.io.close(0, fd, [&](int v) { rc = v; });
  env.engine.run();
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(env.io.open_fd_count(), 0u);
  std::int64_t n = 0;
  env.io.write(0, fd, 100, [&](std::int64_t v) { n = v; });
  env.engine.run();
  EXPECT_EQ(n, -1);
}

TEST(VfsTest, ObserverSeesCallsWithDurations) {
  Env env;
  Fd fd = env.open_now(0, "f", kCreate);
  env.io.write(0, fd, 200 * MiB, [](std::int64_t) {});
  env.engine.run();
  env.io.lseek(0, fd, 0, Whence::kSet, [](std::int64_t) {});
  env.engine.run();
  env.io.read(0, fd, 200 * MiB, [](std::int64_t) {});
  env.engine.run();

  ASSERT_EQ(env.recorder.calls.size(), 4u);
  EXPECT_EQ(env.recorder.calls[0].op, OpType::kOpen);
  const CallRecord& w = env.recorder.calls[1];
  EXPECT_EQ(w.op, OpType::kWrite);
  EXPECT_EQ(w.bytes, 200 * MiB);
  EXPECT_EQ(w.offset, 0u);
  EXPECT_EQ(w.rank, 0u);
  // 200 MiB on one OST (default stripe count) at 100 MiB/s = 2 s.
  EXPECT_NEAR(w.duration, 2.0, 0.01);
  EXPECT_EQ(env.recorder.calls[2].op, OpType::kSeek);
  const CallRecord& r = env.recorder.calls[3];
  EXPECT_EQ(r.op, OpType::kRead);
  EXPECT_GT(r.duration, w.duration);  // read efficiency < 1
  // All records resolve the same file.
  EXPECT_EQ(w.file, r.file);
  EXPECT_NE(w.file, kInvalidFile);
}

TEST(VfsTest, RemoveObserverStopsNotifications) {
  Env env;
  (void)env.open_now(0, "f", kCreate);
  std::size_t before = env.recorder.calls.size();
  env.io.remove_observer(&env.recorder);
  (void)env.open_now(0, "g", kCreate);
  EXPECT_EQ(env.recorder.calls.size(), before);
}

TEST(VfsTest, NodeMappingFollowsTasksPerNode) {
  Env env;
  EXPECT_EQ(env.io.node_of(0), 0u);
  EXPECT_EQ(env.io.node_of(3), 0u);
  EXPECT_EQ(env.io.node_of(4), 1u);
  EXPECT_EQ(env.io.node_of(7), 1u);
}

// Writes are write-through, so close() has nothing to wait for: it
// completes exactly one syscall latency after it is issued and emits
// one close record of that duration.
TEST(VfsTest, CloseCostsOneSyscallLatency) {
  lustre::MachineConfig m = tiny_machine();
  m.syscall_latency = us(2.0);
  Env env(m);
  Fd fd = env.open_now(0, "f", kCreate);
  env.io.write(0, fd, 4 * MiB, [](std::int64_t) {});
  env.engine.run();
  env.recorder.calls.clear();

  const Seconds issued = env.engine.now();
  Seconds completed = -1.0;
  int rc = -2;
  env.io.close(0, fd, [&](int v) {
    rc = v;
    completed = env.engine.now();
  });
  env.engine.run();
  EXPECT_EQ(rc, 0);
  // Exact up to the rounding of the absolute clock.
  EXPECT_NEAR(completed - issued, m.syscall_latency, 1e-12);
  ASSERT_EQ(env.recorder.calls.size(), 1u);
  const CallRecord& c = env.recorder.calls[0];
  EXPECT_EQ(c.op, OpType::kClose);
  EXPECT_EQ(c.fd, fd);
  EXPECT_DOUBLE_EQ(c.start, issued);
  EXPECT_NEAR(c.duration, m.syscall_latency, 1e-12);
}

}  // namespace
}  // namespace eio::posix
