// Unit + integration tests for two-phase collective buffering.
#include "mpiio/collective.h"

#include <gtest/gtest.h>

#include <variant>

#include "common/units.h"
#include "workloads/experiment.h"

namespace eio::mpiio {
namespace {

TEST(TwoPhaseTest, AggregatorSelection) {
  TwoPhaseIo io(256, {.cb_nodes = 4});
  EXPECT_EQ(io.aggregators(), 4u);
  EXPECT_EQ(io.aggregator_stride(), 64u);
  EXPECT_TRUE(io.is_aggregator(0));
  EXPECT_TRUE(io.is_aggregator(64));
  EXPECT_TRUE(io.is_aggregator(192));
  EXPECT_FALSE(io.is_aggregator(1));
  EXPECT_FALSE(io.is_aggregator(63));
}

TEST(TwoPhaseTest, CbNodesClampedToRanks) {
  TwoPhaseIo io(8, {.cb_nodes = 48});
  EXPECT_EQ(io.aggregators(), 8u);
  EXPECT_EQ(io.aggregator_stride(), 1u);
}

TEST(TwoPhaseTest, PartitionCoversRangeExactly) {
  TwoPhaseIo io(256, {.cb_nodes = 4, .alignment = 1 * MiB});
  auto domains = io.partition(3 * MiB, 103 * MiB);
  ASSERT_EQ(domains.size(), 4u);
  EXPECT_EQ(domains.front().lo, 3 * MiB);
  EXPECT_EQ(domains.back().hi, 103 * MiB);
  for (std::size_t i = 1; i < domains.size(); ++i) {
    EXPECT_EQ(domains[i].lo, domains[i - 1].hi);  // no gaps, no overlap
    // Interior boundaries are stripe-aligned.
    EXPECT_EQ(domains[i].lo % (1 * MiB), 0u);
  }
}

TEST(TwoPhaseTest, PartitionBalanced) {
  TwoPhaseIo io(64, {.cb_nodes = 8, .alignment = 1 * MiB});
  auto domains = io.partition(0, 800 * MiB);
  for (const auto& d : domains) {
    EXPECT_NEAR(static_cast<double>(d.size()),
                static_cast<double>(100 * MiB),
                static_cast<double>(1 * MiB));
  }
}

TEST(TwoPhaseTest, TinyRangeYieldsEmptyDomains) {
  TwoPhaseIo io(16, {.cb_nodes = 8, .alignment = 1 * MiB});
  auto domains = io.partition(0, 512 * KiB);
  Bytes covered = 0;
  for (const auto& d : domains) covered += d.size();
  EXPECT_EQ(covered, 512 * KiB);
  EXPECT_EQ(domains.back().hi, 512 * KiB);
}

template <typename OpT>
std::size_t count_ops(const mpi::Program& p) {
  std::size_t n = 0;
  for (const auto& op : p.ops()) {
    if (std::holds_alternative<OpT>(op)) ++n;
  }
  return n;
}

TEST(TwoPhaseTest, EmitWritesOnlyOnAggregators) {
  const std::uint32_t ranks = 64;
  TwoPhaseIo io(ranks, {.cb_nodes = 4, .cb_buffer_size = 8 * MiB,
                        .alignment = 1 * MiB});
  std::vector<mpi::Program> programs(ranks);
  std::vector<Extent> extents;
  Bytes record = 1600 * KiB;
  for (RankId r = 0; r < ranks; ++r) {
    extents.push_back({static_cast<Bytes>(r) * record, record});
  }
  io.emit_write_all(programs, 0, extents);

  Bytes written = 0;
  for (RankId r = 0; r < ranks; ++r) {
    std::size_t writes = count_ops<mpi::op::Write>(programs[r]);
    if (io.is_aggregator(r)) {
      EXPECT_GT(writes, 0u) << "aggregator " << r;
    } else {
      EXPECT_EQ(writes, 0u) << "leaf " << r;
    }
    EXPECT_EQ(count_ops<mpi::op::Gather>(programs[r]), 1u);
    EXPECT_EQ(count_ops<mpi::op::Barrier>(programs[r]), 1u);
    for (const auto& op : programs[r].ops()) {
      if (const auto* w = std::get_if<mpi::op::Write>(&op)) written += w->bytes;
    }
  }
  // The aggregators wrote exactly the collective's payload.
  EXPECT_EQ(written, static_cast<Bytes>(ranks) * record);
}

TEST(TwoPhaseTest, EmittedWritesAreChunkedAndAligned) {
  const std::uint32_t ranks = 16;
  TwoPhaseIo io(ranks, {.cb_nodes = 2, .cb_buffer_size = 4 * MiB,
                        .alignment = 1 * MiB});
  std::vector<mpi::Program> programs(ranks);
  std::vector<Extent> extents;
  for (RankId r = 0; r < ranks; ++r) {
    extents.push_back({static_cast<Bytes>(r) * 3 * MiB, 3 * MiB});
  }
  io.emit_write_all(programs, 0, extents);
  // Walk aggregator 0's seek/write pairs: chunk starts aligned (except
  // possibly the global start), sizes <= cb_buffer_size.
  Bytes expected_offset = 0;
  const auto& ops = programs[0].ops();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (const auto* s = std::get_if<mpi::op::Seek>(&ops[i])) {
      EXPECT_EQ(s->offset, expected_offset);
      const auto* w = std::get_if<mpi::op::Write>(&ops[i + 1]);
      ASSERT_NE(w, nullptr);
      EXPECT_LE(w->bytes, 4 * MiB);
      expected_offset += w->bytes;
    }
  }
  EXPECT_GT(expected_offset, 0u);
}

TEST(TwoPhaseTest, EmptyCollectiveIsJustABarrier) {
  TwoPhaseIo io(4, {.cb_nodes = 2});
  std::vector<mpi::Program> programs(4);
  std::vector<Extent> extents(4);  // all zero-byte
  io.emit_write_all(programs, 0, extents);
  for (const auto& p : programs) {
    EXPECT_EQ(p.size(), 1u);
    EXPECT_EQ(count_ops<mpi::op::Barrier>(p), 1u);
  }
}

TEST(TwoPhaseTest, SparseCollectiveRejectedWithoutSieving) {
  TwoPhaseIo io(4, {.cb_nodes = 2, .data_sieving = false});
  std::vector<mpi::Program> programs(4);
  std::vector<Extent> extents{{0, MiB}, {2 * MiB, MiB}, {4 * MiB, MiB},
                              {6 * MiB, MiB}};  // holes between extents
  EXPECT_THROW(io.emit_write_all(programs, 0, extents), std::logic_error);
}

TEST(TwoPhaseTest, SparseCollectiveSievesTheCoveringRange) {
  TwoPhaseIo io(4, {.cb_nodes = 2, .cb_buffer_size = 4 * MiB,
                    .data_sieving = true});
  std::vector<mpi::Program> programs(4);
  std::vector<Extent> extents{{0, MiB}, {2 * MiB, MiB}, {4 * MiB, MiB},
                              {6 * MiB, MiB}};
  io.emit_write_all(programs, 0, extents);
  Bytes moved = 0;
  for (const auto& p : programs) {
    for (const auto& op : p.ops()) {
      if (const auto* w = std::get_if<mpi::op::Write>(&op)) moved += w->bytes;
    }
  }
  EXPECT_EQ(moved, 7 * MiB);  // the covering range, holes included
}

TEST(TwoPhaseTest, CollectiveBeatsIndependentUnalignedWritesAtScale) {
  // The GCRM lesson as middleware: 512 ranks writing 1.6 MB unaligned
  // records to a shared file, independently vs through two-phase
  // collective buffering, on a machine whose contention bites.
  lustre::MachineConfig machine = lustre::MachineConfig::franklin();
  machine.contention = {.alpha = 0.3, .knee = 8};
  const std::uint32_t ranks = 512;
  const Bytes record = 1600 * KiB;

  workloads::JobSpec independent;
  independent.name = "independent";
  independent.machine = machine;
  independent.stripe_options["f"] = {.stripe_count = machine.ost_count,
                                     .shared = true};
  std::vector<mpi::Program> independent_programs;
  for (RankId r = 0; r < ranks; ++r) {
    mpi::Program p;
    p.open(0, "f");
    p.seek(0, static_cast<Bytes>(r) * record);
    p.write(0, record);
    p.barrier();
    p.close(0);
    independent_programs.push_back(std::move(p));
  }
  independent.programs = std::move(independent_programs);

  workloads::JobSpec collective = independent;
  collective.name = "collective";
  std::vector<mpi::Program> collective_programs(ranks);
  for (RankId r = 0; r < ranks; ++r) collective_programs[r].open(0, "f");
  TwoPhaseIo io(ranks, {.cb_nodes = 16, .cb_buffer_size = 8 * MiB,
                        .alignment = 1 * MiB});
  std::vector<Extent> extents;
  for (RankId r = 0; r < ranks; ++r) {
    extents.push_back({static_cast<Bytes>(r) * record, record});
  }
  io.emit_write_all(collective_programs, 0, extents);
  for (RankId r = 0; r < ranks; ++r) collective_programs[r].close(0);
  collective.programs = std::move(collective_programs);

  workloads::RunResult ind = workloads::run_job(independent);
  workloads::RunResult col = workloads::run_job(collective);
  EXPECT_LT(col.job_time, 0.7 * ind.job_time)
      << "two-phase collective should beat independent unaligned writes";
}

}  // namespace
}  // namespace eio::mpiio
