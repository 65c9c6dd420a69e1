// Unit tests for the Filesystem facade: cost-model features exercised
// one at a time against a small deterministic machine.
#include "lustre/filesystem.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/engine.h"

namespace eio::lustre {
namespace {

/// A tiny quiet machine: no noise, no stragglers, no bug, fixed fair
/// scheduling — each feature under test is switched on explicitly.
MachineConfig quiet_machine() {
  MachineConfig m;
  m.name = "quiet";
  m.tasks_per_node = 4;
  m.nic_bandwidth = 1e9;
  m.ost_count = 4;
  m.ost_bandwidth = 100.0 * MiB;
  m.node_policy = sim::ConcurrencyPolicy::fixed(4);
  m.contention = {};
  m.read_efficiency = 0.5;
  m.strided_readahead_bug = false;
  m.service_noise_sigma = 0.0;
  m.straggler_probability = 0.0;
  m.rmw_inflation = 0.0;
  m.lock_latency_per_boundary = 0.0;
  m.small_io_base_latency = ms(10.0);
  m.small_io_bandwidth = 1.0 * MiB;
  m.unaligned_meta_factor = 1.0;
  m.syscall_latency = 0.0;
  return m;
}

struct Fs {
  sim::RunContext run;
  sim::Engine& engine = run.engine();
  Filesystem fs;
  explicit Fs(const MachineConfig& m, std::uint32_t nodes = 2)
      : run(m.seed), fs(run, m, nodes) {}

  /// Run a single write and return its duration.
  Seconds timed_write(NodeId node, FileId file, Bytes offset, Bytes len) {
    Seconds start = engine.now();
    Seconds end = -1.0;
    fs.write(node, node * 4, file, offset, len, [&] { end = engine.now(); });
    engine.run();
    EIO_CHECK(end >= 0.0);
    return end - start;
  }

  Seconds timed_read(NodeId node, RankId rank, FileId file, Bytes offset,
                     Bytes len) {
    Seconds start = engine.now();
    Seconds end = -1.0;
    fs.read(node, rank, file, offset, len, [&] { end = engine.now(); });
    engine.run();
    EIO_CHECK(end >= 0.0);
    return end - start;
  }
};

TEST(FilesystemTest, CreateAndLookup) {
  Fs f(quiet_machine());
  FileId a = f.fs.create("a", {.stripe_count = 2});
  FileId b = f.fs.create("b", {.stripe_count = 100});  // clamped
  EXPECT_NE(a, b);
  EXPECT_EQ(f.fs.lookup("a"), a);
  EXPECT_EQ(f.fs.lookup("missing"), kInvalidFile);
  EXPECT_EQ(f.fs.layout(a).stripe_count, 2u);
  EXPECT_EQ(f.fs.layout(b).stripe_count, 4u);  // clamped to ost_count
  // start_ost rotates per file.
  EXPECT_NE(f.fs.layout(a).start_ost, f.fs.layout(b).start_ost);
}

TEST(FilesystemTest, DuplicateCreateThrows) {
  Fs f(quiet_machine());
  (void)f.fs.create("a", {});
  EXPECT_THROW((void)f.fs.create("a", {}), std::logic_error);
}

TEST(FilesystemTest, SizeTracksHighWaterMark) {
  Fs f(quiet_machine());
  FileId a = f.fs.create("a", {.stripe_count = 4});
  EXPECT_EQ(f.fs.size(a), 0u);
  (void)f.timed_write(0, a, 10 * MiB, 5 * MiB);
  EXPECT_EQ(f.fs.size(a), 15 * MiB);
  (void)f.timed_write(0, a, 0, 1 * MiB);
  EXPECT_EQ(f.fs.size(a), 15 * MiB);  // no shrink
}

TEST(FilesystemTest, AlignedWriteDurationMatchesShares) {
  Fs f(quiet_machine(), /*nodes=*/1);
  FileId a = f.fs.create("a", {.stripe_count = 4});
  // Single flow over 4 OSTs x 100 MiB/s = 400 MiB/s.
  Seconds d = f.timed_write(0, a, 0, 400 * MiB);
  EXPECT_NEAR(d, 1.0, 0.01);
}

TEST(FilesystemTest, ReadEfficiencySlowsReads) {
  Fs f(quiet_machine(), 1);
  FileId a = f.fs.create("a", {.stripe_count = 4});
  (void)f.timed_write(0, a, 0, 400 * MiB);
  Seconds r = f.timed_read(0, 0, a, 0, 400 * MiB);
  EXPECT_NEAR(r, 2.0, 0.02);  // read_efficiency = 0.5
}

TEST(FilesystemTest, UnalignedSharedWritePaysRmwAndLocks) {
  MachineConfig m = quiet_machine();
  m.rmw_inflation = 1.0;                    // 2x bytes
  m.lock_latency_per_boundary = ms(100.0);  // visible delay
  Fs f(m, 1);
  FileId shared = f.fs.create("s", {.stripe_count = 4, .shared = true});
  FileId priv = f.fs.create("p", {.stripe_count = 4, .shared = false});
  Seconds unaligned = f.timed_write(0, shared, 512 * KiB, 100 * MiB);
  Seconds aligned = f.timed_write(0, shared, 200 * MiB, 100 * MiB);
  Seconds private_unaligned = f.timed_write(0, priv, 512 * KiB, 100 * MiB);
  EXPECT_GT(unaligned, 1.9 * aligned);  // ~2x bytes + lock latency
  // Private files don't pay the shared-extent-lock penalty.
  EXPECT_NEAR(private_unaligned, aligned, 0.01);
}

TEST(FilesystemTest, SmallIoSerializesThroughMds) {
  Fs f(quiet_machine(), 2);
  FileId a = f.fs.create("a", {.stripe_count = 4});
  std::vector<Seconds> done;
  for (int i = 0; i < 3; ++i) {
    f.fs.write(0, 0, a, static_cast<Bytes>(i) * KiB, 1 * KiB,
               [&] { done.push_back(f.engine.now()); });
  }
  f.engine.run();
  ASSERT_EQ(done.size(), 3u);
  // base 10ms + 1KiB/1MiB/s ~ 0.977ms each, strictly serialized.
  EXPECT_NEAR(done[0], 0.011, 0.001);
  EXPECT_NEAR(done[1], 0.022, 0.002);
  EXPECT_NEAR(done[2], 0.033, 0.003);
  EXPECT_EQ(f.fs.stats().small_ops, 3u);
  EXPECT_EQ(f.fs.mds().requests(), 3u);
}

TEST(FilesystemTest, ZeroByteOpsCompleteQuickly) {
  Fs f(quiet_machine());
  FileId a = f.fs.create("a", {});
  Seconds w = f.timed_write(0, a, 0, 0);
  Seconds r = f.timed_read(0, 0, a, 0, 0);
  EXPECT_LT(w, 1e-3);
  EXPECT_LT(r, 1e-3);
}

TEST(FilesystemTest, StatsCountBytesAndOps) {
  Fs f(quiet_machine(), 1);
  FileId a = f.fs.create("a", {.stripe_count = 4});
  (void)f.timed_write(0, a, 0, 10 * MiB);
  (void)f.timed_read(0, 0, a, 0, 4 * MiB);
  const FilesystemStats& s = f.fs.stats();
  EXPECT_EQ(s.writes, 1u);
  EXPECT_EQ(s.reads, 1u);
  EXPECT_EQ(s.bytes_written, 10 * MiB);
  EXPECT_EQ(s.bytes_read, 4 * MiB);
}

TEST(FilesystemTest, WriteLeavesResidueThatExpires) {
  MachineConfig m = quiet_machine();
  m.dirty_residue_cap = 32 * MiB;
  m.dirty_residue_ttl = 5.0;
  Fs f(m, 1);
  FileId a = f.fs.create("a", {.stripe_count = 4});
  Bytes at_completion = 0, after_ttl = 1;
  f.fs.write(0, 0, a, 0, 100 * MiB, [&] {
    at_completion = f.fs.residue(0);
    f.engine.schedule_in(6.0, [&] { after_ttl = f.fs.residue(0); });
  });
  f.engine.run();
  EXPECT_EQ(at_completion, 32 * MiB);  // capped at the residue limit
  EXPECT_EQ(after_ttl, 0u);            // reclaimed after the TTL
}

TEST(FilesystemTest, PressureFollowsInterleaveWindow) {
  MachineConfig m = quiet_machine();
  m.interleave_pressure_window = 5.0;
  m.dirty_residue_cap = 0;  // isolate the file-window contribution
  Fs f(m, 1);
  FileId a = f.fs.create("a", {.stripe_count = 4});
  EXPECT_FALSE(f.fs.under_pressure(0, a));
  bool during = false, after = true;
  f.fs.write(0, 0, a, 0, 40 * MiB, [&] {
    during = f.fs.under_pressure(0, a);
    f.engine.schedule_in(6.0, [&] { after = f.fs.under_pressure(0, a); });
  });
  f.engine.run();
  EXPECT_TRUE(during);
  EXPECT_FALSE(after);
}

TEST(FilesystemTest, ReadaheadBugDegradesStridedPressuredReads) {
  MachineConfig m = quiet_machine();
  m.strided_readahead_bug = true;
  m.readahead_page_latency = ms(0.5);
  m.readahead_growth = 1.5;
  m.readahead_task_sigma = 0.0;
  m.interleave_pressure_window = 1e9;  // keep pressure armed
  Fs f(m, 1);
  FileId a = f.fs.create("a", {.stripe_count = 4});
  Bytes slot = 16 * MiB;
  Bytes len = 12 * MiB;  // a gap after each read makes the pattern strided
  (void)f.timed_write(0, a, 0, 8 * slot);  // arm the pressure window

  std::vector<Seconds> reads;
  for (int i = 0; i < 6; ++i) {
    reads.push_back(f.timed_read(0, 0, a, static_cast<Bytes>(i) * slot, len));
  }
  // Reads 0..2 (matches 0..2) are normal: 12 MiB / 200 MiB/s = 0.06 s.
  EXPECT_NEAR(reads[0], 0.06, 0.01);
  EXPECT_NEAR(reads[2], 0.06, 0.01);
  // Read 3 trips the defect: 3072 pages x 0.5 ms = ~1.5 s.
  EXPECT_NEAR(reads[3], 1.536, 0.05);
  // And it gets progressively worse by the growth factor.
  EXPECT_NEAR(reads[4] / reads[3], 1.5, 0.02);
  EXPECT_NEAR(reads[5] / reads[4], 1.5, 0.02);
  EXPECT_EQ(f.fs.stats().degraded_reads, 3u);
}

TEST(FilesystemTest, SequentialReadsImmuneToTheBug) {
  // Contiguous streaming is the healthy read-ahead path: even with the
  // defect present and pressure armed, sequential reads never trip it.
  MachineConfig m = quiet_machine();
  m.strided_readahead_bug = true;
  m.interleave_pressure_window = 1e9;
  Fs f(m, 1);
  FileId a = f.fs.create("a", {.stripe_count = 4});
  (void)f.timed_write(0, a, 0, 128 * MiB);
  for (int i = 0; i < 8; ++i) {
    Seconds r = f.timed_read(0, 0, a, static_cast<Bytes>(i) * 16 * MiB, 16 * MiB);
    EXPECT_LT(r, 0.2) << "sequential read " << i;
  }
  EXPECT_EQ(f.fs.stats().degraded_reads, 0u);
}

TEST(FilesystemTest, NoBugWithoutPressure) {
  MachineConfig m = quiet_machine();
  m.strided_readahead_bug = true;
  m.readahead_task_sigma = 0.0;
  m.interleave_pressure_window = 0.0;  // never pressured
  m.dirty_residue_cap = 0;
  Fs f(m, 1);
  FileId a = f.fs.create("a", {.stripe_count = 4});
  Bytes slot = 16 * MiB;
  (void)f.timed_write(0, a, 0, 8 * slot);
  for (int i = 0; i < 6; ++i) {
    Seconds r = f.timed_read(0, 0, a, static_cast<Bytes>(i) * slot, 12 * MiB);
    EXPECT_LT(r, 0.2) << "read " << i;
  }
  EXPECT_EQ(f.fs.stats().degraded_reads, 0u);
}

TEST(FilesystemTest, NoBugWhenPatched) {
  MachineConfig m = quiet_machine();
  m.strided_readahead_bug = false;  // the Lustre patch
  m.interleave_pressure_window = 1e9;
  Fs f(m, 1);
  FileId a = f.fs.create("a", {.stripe_count = 4});
  Bytes slot = 16 * MiB;
  (void)f.timed_write(0, a, 0, 8 * slot);
  for (int i = 0; i < 6; ++i) {
    EXPECT_LT(f.timed_read(0, 0, a, static_cast<Bytes>(i) * slot, 12 * MiB), 0.2);
  }
  EXPECT_EQ(f.fs.stats().degraded_reads, 0u);
}

TEST(FilesystemTest, UnknownFileOperationsThrow) {
  Fs f(quiet_machine());
  EXPECT_THROW((void)f.fs.layout(999), std::logic_error);
  EXPECT_THROW((void)f.fs.size(999), std::logic_error);
  EXPECT_THROW(f.fs.write(0, 0, 999, 0, 1, nullptr), std::logic_error);
  EXPECT_THROW(f.fs.read(0, 0, 999, 0, 1, nullptr), std::logic_error);
}

TEST(FilesystemTest, MetadataFactorAppliesToUnalignedFiles) {
  MachineConfig m = quiet_machine();
  m.unaligned_meta_factor = 3.0;
  Fs f(m, 1);
  FileId a = f.fs.create("a", {.stripe_count = 4, .shared = true});
  Seconds clean = 0.0, dirty = 0.0;
  f.fs.write(0, 0, a, 0, 1 * KiB, nullptr);
  f.engine.run();
  clean = f.fs.mds().busy_time();
  // An unaligned bulk write marks the file; later metadata slows down.
  (void)f.timed_write(0, a, 512 * KiB, 2 * MiB);
  f.fs.write(0, 0, a, 4 * KiB, 1 * KiB, nullptr);
  f.engine.run();
  dirty = f.fs.mds().busy_time() - clean;
  EXPECT_NEAR(dirty / clean, 3.0, 0.2);
}

// --- residue reclaim: passive keyed timers, never calendar events ----

/// Residue alone arms pressure; the file-window contribution is off.
MachineConfig reclaim_machine() {
  MachineConfig m = quiet_machine();
  m.dirty_residue_cap = 32 * MiB;
  m.dirty_residue_ttl = 5.0;
  m.pressure_threshold = 32 * MiB;
  m.interleave_pressure_window = 0.0;
  return m;
}

TEST(FilesystemTest, ReadAtTheReclaimInstantSeesTheTimerModelsResidue) {
  const MachineConfig m = reclaim_machine();
  Seconds completed = 0.0;
  {
    Fs f(m, 1);
    FileId a = f.fs.create("a", {.stripe_count = 4});
    completed = f.timed_write(0, a, 0, 100 * MiB);
  }
  // The instant the reclaim timer would have fired, computed with the
  // arithmetic the filesystem uses.
  const Seconds reclaim = completed + m.dirty_residue_ttl;

  // Scheduled before the write completed: the probe's key sorts before
  // the reclaim's, so, as with a timer event, the residue is still there.
  {
    Fs f(m, 1);
    FileId a = f.fs.create("a", {.stripe_count = 4});
    Bytes residue = 0;
    bool pressured = false;
    f.engine.schedule_at(reclaim, [&] {
      residue = f.fs.residue(0);
      pressured = f.fs.under_pressure(0, a);
    });
    f.fs.write(0, 0, a, 0, 100 * MiB, nullptr);
    f.engine.run();
    EXPECT_EQ(residue, 32 * MiB);
    EXPECT_TRUE(pressured);
  }
  // Scheduled after the write completed: it sorts after the reclaim,
  // which has run by then.
  {
    Fs f(m, 1);
    FileId a = f.fs.create("a", {.stripe_count = 4});
    Bytes residue = 1;
    bool pressured = true;
    Seconds probed = -1.0;
    f.fs.write(0, 0, a, 0, 100 * MiB, [&] {
      f.engine.schedule_in(m.dirty_residue_ttl, [&] {
        probed = f.engine.now();
        residue = f.fs.residue(0);
        pressured = f.fs.under_pressure(0, a);
      });
    });
    f.engine.run();
    EXPECT_EQ(probed, reclaim);
    EXPECT_EQ(residue, 0u);
    EXPECT_FALSE(pressured);
  }
}

/// Issue `n` back-to-back writes on one node; at the last completion,
/// report the live calendar events and the node's residue.
std::pair<std::size_t, Bytes> live_events_after_writes(int n) {
  MachineConfig m = reclaim_machine();
  m.dirty_residue_cap = 1 * MiB;
  Fs f(m, 1);
  FileId a = f.fs.create("a", {.stripe_count = 4});
  std::pair<std::size_t, Bytes> at_end{0, 0};
  std::function<void(int)> issue = [&](int i) {
    f.fs.write(0, 0, a, static_cast<Bytes>(i) * 4 * MiB, 4 * MiB, [&, i] {
      if (i + 1 < n) {
        issue(i + 1);
      } else {
        at_end = {f.engine.live_events(), f.fs.residue(0)};
      }
    });
  };
  issue(0);
  f.engine.run();
  return at_end;
}

TEST(FilesystemTest, PendingReclaimsDoNotOccupyTheCalendar) {
  // Every write's reclaim is still pending at the end (64 x 10 ms is far
  // inside the 5 s TTL), yet none of them is a calendar event.
  auto [live_few, residue_few] = live_events_after_writes(4);
  auto [live_many, residue_many] = live_events_after_writes(64);
  EXPECT_EQ(residue_few, 4 * MiB);
  EXPECT_EQ(residue_many, 64 * MiB);
  EXPECT_EQ(live_many, live_few);
}

TEST(FilesystemTest, RunUntilPassesReclaimsAtOrBeforeTheDeadline) {
  const MachineConfig m = reclaim_machine();
  Fs f(m, 1);
  FileId a = f.fs.create("a", {.stripe_count = 4});
  Seconds completed = -1.0;
  f.fs.write(0, 0, a, 0, 100 * MiB, [&] { completed = f.engine.now(); });
  f.engine.run_until(1.0);
  ASSERT_GT(completed, 0.0);
  const Seconds reclaim = completed + m.dirty_residue_ttl;
  f.engine.run_until(std::nextafter(reclaim, 0.0));
  EXPECT_EQ(f.fs.residue(0), 32 * MiB);
  f.engine.run_until(reclaim);
  EXPECT_EQ(f.fs.residue(0), 0u);
  EXPECT_FALSE(f.fs.under_pressure(0, a));
}

TEST(FilesystemTest, DrainedRunEndsAtTheLastReclaim) {
  // The clock ends where the last reclaim timer's event would have left
  // it, so work issued after run() starts at the same instant as before.
  const MachineConfig m = reclaim_machine();
  Fs f(m, 1);
  FileId a = f.fs.create("a", {.stripe_count = 4});
  Seconds completed = f.timed_write(0, a, 0, 100 * MiB);
  EXPECT_EQ(f.engine.now(), completed + m.dirty_residue_ttl);
  EXPECT_EQ(f.fs.residue(0), 0u);
}

}  // namespace
}  // namespace eio::lustre
