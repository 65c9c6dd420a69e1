// Parameterized property tests for the file-system cost model:
// monotonicity and conservation laws that must hold across the
// configuration space.
#include <gtest/gtest.h>

#include <vector>

#include "common/units.h"
#include "lustre/filesystem.h"
#include "sim/run_context.h"

namespace eio::lustre {
namespace {

MachineConfig quiet_machine() {
  MachineConfig m;
  m.nic_bandwidth = 1e9;
  m.ost_count = 8;
  m.ost_bandwidth = 100.0 * MiB;
  m.node_policy = sim::ConcurrencyPolicy::fixed(4);
  m.contention = {};
  m.read_efficiency = 0.5;
  m.strided_readahead_bug = false;
  m.service_noise_sigma = 0.0;
  m.straggler_probability = 0.0;
  m.rmw_inflation = 0.5;
  m.lock_latency_per_boundary = ms(20.0);
  m.syscall_latency = 0.0;
  return m;
}

Seconds timed_write(Filesystem& fs, sim::Engine& engine, FileId file,
                    Bytes offset, Bytes len) {
  Seconds start = engine.now();
  Seconds end = -1.0;
  fs.write(0, 0, file, offset, len, [&] { end = engine.now(); });
  engine.run();
  EIO_CHECK(end >= 0.0);
  return end - start;
}

// --- unaligned-write penalty grows with the boundaries crossed ---

class BoundaryPenaltyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundaryPenaltyTest, LockDelayScalesWithCrossings) {
  // An unaligned extent of n MiB + 512 KiB crosses n boundaries.
  std::uint64_t n = GetParam();
  sim::RunContext run(quiet_machine().seed);
  sim::Engine& engine = run.engine();
  Filesystem fs(run, quiet_machine(), 1);
  FileId f = fs.create("f", {.stripe_count = 8, .shared = true});
  Bytes len = n * MiB + 512 * KiB;
  Seconds unaligned = timed_write(fs, engine, f, 512 * KiB, len);
  // Reference: same bytes, aligned start and end (no penalty).
  Bytes aligned_len = (n + 1) * MiB;
  Seconds aligned = timed_write(fs, engine, f, (n + 10) * MiB, aligned_len);
  // Expected extra: rmw inflation (x1.5 bytes) + (crossings+1) lock delays.
  double expected_locks = 0.020 * static_cast<double>(n + 1);
  double expected =
      aligned * 1.5 * static_cast<double>(len) / static_cast<double>(aligned_len) +
      expected_locks;
  EXPECT_NEAR(unaligned, expected, 0.15 * expected) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Crossings, BoundaryPenaltyTest,
                         ::testing::Values<std::uint64_t>(1, 2, 4, 8, 16));

// --- OST contention is monotone in the distinct-client count ---

class ContentionMonotoneTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ContentionMonotoneTest, MoreClientsNeverRaisePerClientThroughput) {
  std::uint32_t clients = GetParam();
  MachineConfig m = quiet_machine();
  m.contention = {.alpha = 0.2, .knee = 2};
  m.node_policy = sim::ConcurrencyPolicy::fixed(1);
  sim::RunContext run(m.seed);
  sim::Engine& engine = run.engine();
  Filesystem fs(run, m, clients);
  FileId f = fs.create("f", {.stripe_count = 1, .shared = true});
  // One write per client node, all to the same single-OST file.
  std::vector<Seconds> done(clients, -1.0);
  for (std::uint32_t c = 0; c < clients; ++c) {
    fs.write(c, c * 4, f, static_cast<Bytes>(c) * 10 * MiB, 10 * MiB,
             [&done, c, &engine] { done[c] = engine.now(); });
  }
  engine.run();
  Seconds slowest = 0.0;
  for (Seconds d : done) {
    EXPECT_GE(d, 0.0);
    slowest = std::max(slowest, d);
  }
  // Per-client time grows at least linearly in clients (shared OST),
  // and super-linearly once contention kicks in past the knee.
  double fair = clients * 10.0 / 100.0;  // clients x 10 MiB at 100 MiB/s
  EXPECT_GE(slowest, 0.95 * fair) << clients << " clients";
  if (clients > 4) {
    EXPECT_GT(slowest, 1.2 * fair) << clients << " clients";
  }
}

INSTANTIATE_TEST_SUITE_P(Clients, ContentionMonotoneTest,
                         ::testing::Values<std::uint32_t>(1, 2, 4, 8, 16));

// --- splitting a transfer conserves total service work ---

class SplitConservationTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SplitConservationTest, KSplitMovesSameBytesInSameTime) {
  // With noise off and one task, k sequential sub-writes of size B/k
  // take the same total time as one write of B (no artificial benefit
  // or penalty from splitting alone — the Figure 2 gain comes from
  // stochastic effects, not from the mechanics of splitting). This
  // holds while each piece still spans the full stripe set (B/k >=
  // stripe_count x stripe_size); smaller pieces legitimately lose
  // parallel width.
  std::uint32_t k = GetParam();
  MachineConfig m = quiet_machine();
  m.lock_latency_per_boundary = 0.0;
  m.rmw_inflation = 0.0;
  sim::RunContext run(m.seed);
  sim::Engine& engine = run.engine();
  Filesystem fs(run, m, 1);
  FileId f = fs.create("f", {.stripe_count = 8, .shared = false});
  Bytes total = 64 * MiB;
  Bytes piece = total / k;
  Seconds start = engine.now();
  Seconds end = -1.0;
  // Issue sub-writes back to back (sequentially chained).
  std::function<void(std::uint32_t)> next = [&](std::uint32_t i) {
    if (i == k) {
      end = engine.now();
      return;
    }
    fs.write(0, 0, f, static_cast<Bytes>(i) * piece, piece,
             [&next, i] { next(i + 1); });
  };
  next(0);
  engine.run();
  EXPECT_NEAR(end - start, 64.0 / 800.0, 1e-6) << "k=" << k;
  EXPECT_EQ(fs.stats().bytes_written, total);
}

INSTANTIATE_TEST_SUITE_P(Ks, SplitConservationTest,
                         ::testing::Values<std::uint32_t>(1, 2, 4, 8));

}  // namespace
}  // namespace eio::lustre
