// Steady-state allocation guard for the simulator hot path.
//
// This binary replaces global operator new/delete with counting
// versions (which is why it lives in its own test target) and asserts
// the acceptance criterion of the calendar/flow-store overhaul
// directly: after a warm-up pass has grown every slab and heap to its
// working size, Engine::schedule_in/cancel/step and the FluidNetwork
// grant/complete paths perform ZERO heap allocations.
//
// The fluid test tolerates exactly one allocation per started flow —
// the test's own FlowSpec::osts stripe vector, built caller-side. Any
// network- or engine-internal allocation pushes the count past that
// and fails the equality.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "lustre/filesystem.h"
#include "posix/vfs.h"
#include "sim/engine.h"
#include "sim/fluid.h"
#include "sim/run_context.h"
#include "workloads/experiment.h"
#include "workloads/ior.h"

namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

// The counting operators intentionally pair ::operator new with
// std::free; GCC's pairing heuristic flags that once a caller inlines
// through both.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace eio::sim {
namespace {

std::uint64_t allocs() { return g_news.load(std::memory_order_relaxed); }

TEST(AllocGuardTest, EngineScheduleCancelStepChurnIsAllocationFree) {
  Engine e;
  auto churn = [&e] {
    // Timeout-heavy shape: schedule a batch, cancel most, run the
    // survivors — exercises the freelist, the heap, and compaction.
    for (int round = 0; round < 100; ++round) {
      std::vector<EventId> doomed;
      doomed.reserve(64);
      for (int i = 0; i < 50; ++i) {
        EventId id = e.schedule_in(1.0 + i, [] {});
        if (i > 0) doomed.push_back(id);
      }
      for (EventId id : doomed) e.cancel(id);
      while (e.step()) {
      }
    }
  };
  churn();  // warm-up: grows the slot slab and the heap

  // Counting window: same churn shape, but with the bookkeeping
  // vector hoisted so the only allocations possible are the engine's.
  std::vector<EventId> doomed;
  doomed.reserve(64);
  std::uint64_t before = allocs();
  for (int round = 0; round < 100; ++round) {
    doomed.clear();
    for (int i = 0; i < 50; ++i) {
      EventId id = e.schedule_in(1.0 + i, [] {});
      if (i > 0) doomed.push_back(id);
    }
    for (EventId id : doomed) e.cancel(id);
    while (e.step()) {
    }
  }
  std::uint64_t after = allocs();
  EXPECT_EQ(after - before, 0u)
      << "engine schedule/cancel/step allocated in steady state";
}

TEST(AllocGuardTest, FluidGrantCompletePathIsAllocationFree) {
  Engine e;
  FluidNetwork::Config cfg;
  cfg.nic_capacity = {1000.0, 1000.0};
  cfg.ost_capacity = {100.0, 100.0, 100.0, 100.0};
  cfg.node_policy = ConcurrencyPolicy::fixed(2);  // forces waiting/pump
  FluidNetwork net(e, cfg);

  const std::vector<OstId> stripe{0, 1, 2, 3};
  int completed = 0;
  auto churn = [&]() -> std::size_t {
    std::size_t started = 0;
    for (int round = 0; round < 50; ++round) {
      for (NodeId node = 0; node < 2; ++node) {
        for (int i = 0; i < 6; ++i) {  // 6 > concurrency: queueing happens
          FlowSpec spec;
          spec.node = node;
          spec.bytes = 1000 + static_cast<Bytes>(i) * 100;
          spec.osts = stripe;  // the one caller-side allocation
          spec.on_complete = [&completed](FlowId) { ++completed; };
          net.start_flow(std::move(spec));
          ++started;
        }
      }
      e.run();
    }
    return started;
  };
  churn();  // warm-up: grows flow slab, group slabs, engine calendar

  std::uint64_t before = allocs();
  std::size_t started = churn();
  std::uint64_t after = allocs();
  EXPECT_EQ(after - before, started)
      << "expected exactly one (caller-side) allocation per started "
         "flow; the grant/complete path allocated internally";
  EXPECT_EQ(e.live_events(), 0u);
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_GT(completed, 0);
}

// The full stack above the fluid network: POSIX data ops through the
// Lustre facade. Completion callbacks are InlineFunction end to end
// (SizeCallback -> IoCallback -> FlowCallback -> Action), so in steady
// state the only allocation per op is the caller-side stripe vector
// the filesystem builds for each flow (osts_for_extent).
TEST(AllocGuardTest, LustrePosixDataOpPathIsAllocationFree) {
  lustre::MachineConfig m;
  m.name = "alloc-guard";
  m.tasks_per_node = 4;
  m.nic_bandwidth = 1e9;
  m.ost_count = 4;
  m.ost_bandwidth = 100.0 * MiB;
  m.node_policy = ConcurrencyPolicy::fixed(4);
  m.contention = {};
  m.strided_readahead_bug = false;
  m.service_noise_sigma = 0.0;
  m.straggler_probability = 0.0;
  m.rmw_inflation = 0.0;
  m.lock_latency_per_boundary = 0.0;
  m.syscall_latency = 0.0;

  RunContext run(m.seed);
  lustre::Filesystem fs(run, m, /*node_count=*/1);
  posix::PosixIo posix(run, fs, m.tasks_per_node);

  Fd fd = -1;
  posix.open(0, "f", posix::kCreate | posix::kWrOnly,
             [&fd](Fd got) { fd = got; });
  run.engine().run();
  ASSERT_GE(fd, 0);

  std::size_t completions = 0;
  // lseek moves the position when it is issued, so each data op right
  // after it acts at extent i.
  auto seek_to = [&](int i) {
    posix.lseek(0, fd, static_cast<std::int64_t>(i) * 4 * MiB,
                posix::Whence::kSet, [](std::int64_t) {});
  };
  auto churn = [&]() -> std::size_t {
    std::size_t ops = 0;
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 4; ++i) {
        seek_to(i);
        posix.write(0, fd, 4 * MiB, [&completions](std::int64_t n) {
          ASSERT_GT(n, 0);
          ++completions;
        });
        ++ops;
      }
      run.engine().run();
      for (int i = 0; i < 4; ++i) {
        seek_to(i);
        posix.read(0, fd, 4 * MiB, [&completions](std::int64_t n) {
          ASSERT_GT(n, 0);
          ++completions;
        });
        ++ops;
      }
      run.engine().run();
    }
    return ops;
  };
  churn();  // warm-up: grows fd tables, flow slabs, engine calendar

  std::uint64_t before = allocs();
  std::size_t ops = churn();
  std::uint64_t after = allocs();
  EXPECT_EQ(after - before, ops)
      << "expected exactly one allocation per data op (the per-flow "
         "stripe vector); the POSIX/Lustre completion chain allocated";
  EXPECT_EQ(completions, 2u * ops);
  EXPECT_EQ(run.engine().live_events(), 0u);
}

// Residue reclaims are passive keyed timers queued per node. With a
// TTL a few writes long, every completion retires old reclaims while
// new ones queue, and the queue recycles its storage.
TEST(AllocGuardTest, ResidueReclaimQueueIsAllocationFree) {
  lustre::MachineConfig m;
  m.name = "alloc-guard-reclaim";
  m.tasks_per_node = 4;
  m.nic_bandwidth = 1e9;
  m.ost_count = 4;
  m.ost_bandwidth = 100.0 * MiB;
  m.node_policy = ConcurrencyPolicy::fixed(4);
  m.contention = {};
  m.strided_readahead_bug = false;
  m.service_noise_sigma = 0.0;
  m.straggler_probability = 0.0;
  m.syscall_latency = 0.0;
  m.dirty_residue_ttl = 0.1;  // ~10 writes of 4 MiB at 400 MiB/s

  RunContext run(m.seed);
  lustre::Filesystem fs(run, m, /*node_count=*/1);
  FileId file = fs.create("f", {.stripe_count = 4});

  // Step, never drain: a drained calendar would retire every reclaim.
  auto churn = [&]() -> std::size_t {
    std::size_t writes = 0;
    for (int i = 0; i < 200; ++i) {
      bool done = false;
      fs.write(0, 0, file, 0, 4 * MiB, [&done] { done = true; });
      while (!done && run.engine().step()) {
      }
      EXPECT_TRUE(done);
      ++writes;
    }
    return writes;
  };
  churn();  // warm-up: grows the reclaim queue and flow slabs
  ASSERT_GT(fs.residue(0), 0u);  // reclaims are pending, not drained

  std::uint64_t before = allocs();
  std::size_t writes = churn();
  std::uint64_t after = allocs();
  EXPECT_EQ(after - before, writes)
      << "expected exactly one allocation per write (the per-flow stripe "
         "vector); the reclaim queue allocated";
}

// A job's programs are one shared, immutable set: copying a JobSpec
// (once per ensemble run) costs the same few allocations whatever the
// rank and op counts.
TEST(AllocGuardTest, JobSpecCopyIsIndependentOfRanksAndOps) {
  auto copy_allocs = [](std::uint32_t tasks, std::uint32_t segments) {
    workloads::IorConfig cfg;
    cfg.tasks = tasks;
    cfg.segments = segments;
    workloads::JobSpec job =
        workloads::make_ior_job(lustre::MachineConfig::franklin(), cfg);
    job.name = "job";  // the generated name's length varies with tasks
    std::uint64_t before = allocs();
    workloads::JobSpec copy = job;
    std::uint64_t after = allocs();
    EXPECT_EQ(copy.programs.data(), job.programs.data());
    return after - before;
  };
  std::uint64_t small = copy_allocs(4, 1);
  std::uint64_t large = copy_allocs(1024, 16);
  EXPECT_EQ(large, small);
  EXPECT_LE(small, 8u);
}

}  // namespace
}  // namespace eio::sim
