#include "workloads/madbench.h"

#include "common/check.h"
#include "mpiio/collective.h"

namespace eio::workloads {

namespace {

/// Per-matrix collective extents. The collective variant stores the
/// file matrix-major (matrix m's task slices contiguous), the natural
/// MPI-IO file view — each collective then covers one dense-ish region
/// instead of sieving the whole file.
std::vector<mpiio::Extent> matrix_extents(const MadbenchConfig& config,
                                          std::uint32_t m) {
  const Bytes slot = config.slot();
  const Bytes matrix_base = static_cast<Bytes>(m) * slot * config.tasks;
  std::vector<mpiio::Extent> extents;
  extents.reserve(config.tasks);
  for (RankId rank = 0; rank < config.tasks; ++rank) {
    extents.push_back({matrix_base + slot * rank, config.matrix_bytes});
  }
  return extents;
}

/// The independent-POSIX variant: each rank seeks and transfers its
/// own matrix (the configuration the paper traces).
std::vector<mpi::Program> build_independent(const MadbenchConfig& config) {
  const Bytes slot = config.slot();
  std::vector<mpi::Program> programs;
  programs.reserve(config.tasks);
  for (RankId rank = 0; rank < config.tasks; ++rank) {
    mpi::Program p;
    p.open(0, config.file_name);
    Bytes base = static_cast<Bytes>(rank) * slot * config.matrices;
    auto matrix_offset = [&](std::uint32_t m) { return base + slot * m; };

    // Phase S: generate and write each matrix.
    for (std::uint32_t m = 0; m < config.matrices; ++m) {
      p.phase(MadbenchConfig::generate_phase(m + 1));
      p.seek(0, matrix_offset(m));
      p.write(0, config.matrix_bytes);
      p.barrier();
    }
    // Phase W: read each matrix back, write the product in its place.
    for (std::uint32_t m = 0; m < config.matrices; ++m) {
      p.phase(MadbenchConfig::middle_phase(m + 1));
      p.seek(0, matrix_offset(m));
      p.read(0, config.matrix_bytes);
      p.seek(0, matrix_offset(m));
      p.write(0, config.matrix_bytes);
      p.barrier();
    }
    // Phase C: read the result matrices.
    for (std::uint32_t m = 0; m < config.matrices; ++m) {
      p.phase(MadbenchConfig::final_phase(m + 1));
      p.seek(0, matrix_offset(m));
      p.read(0, config.matrix_bytes);
      p.barrier();
    }
    p.close(0);
    programs.push_back(std::move(p));
  }
  return programs;
}

/// The MPI-IO collective variant: the same logical phases, but every
/// matrix transfer is a two-phase collective over all ranks.
std::vector<mpi::Program> build_collective(const MadbenchConfig& config) {
  mpiio::TwoPhaseIo io(config.tasks,
                       {.cb_nodes = config.cb_nodes,
                        .cb_buffer_size = 16 * MiB,
                        .alignment = config.alignment,
                        .data_sieving = true});
  std::vector<mpi::Program> programs(config.tasks);
  auto all_phase = [&](std::int32_t phase) {
    for (auto& p : programs) p.phase(phase);
  };
  for (auto& p : programs) p.open(0, config.file_name);

  for (std::uint32_t m = 0; m < config.matrices; ++m) {
    all_phase(MadbenchConfig::generate_phase(m + 1));
    io.emit_write_all(programs, 0, matrix_extents(config, m));
  }
  for (std::uint32_t m = 0; m < config.matrices; ++m) {
    all_phase(MadbenchConfig::middle_phase(m + 1));
    io.emit_read_all(programs, 0, matrix_extents(config, m));
    io.emit_write_all(programs, 0, matrix_extents(config, m));
  }
  for (std::uint32_t m = 0; m < config.matrices; ++m) {
    all_phase(MadbenchConfig::final_phase(m + 1));
    io.emit_read_all(programs, 0, matrix_extents(config, m));
  }
  for (auto& p : programs) p.close(0);
  return programs;
}

}  // namespace

JobSpec make_madbench_job(const lustre::MachineConfig& machine,
                          const MadbenchConfig& config) {
  EIO_CHECK(config.tasks >= 1);
  EIO_CHECK(config.matrices >= 1);
  EIO_CHECK(config.alignment >= 1);

  JobSpec job;
  job.machine = machine;
  job.name = "madbench-" + std::to_string(config.tasks) + "t-" + machine.name;
  if (config.collective_io) job.name += "-mpiio";
  std::uint32_t stripes =
      config.stripe_count == 0 ? machine.ost_count : config.stripe_count;
  job.stripe_options[config.file_name] = {.stripe_count = stripes,
                                          .shared = config.tasks > 1};
  job.programs = config.collective_io ? build_collective(config)
                                      : build_independent(config);
  return job;
}

}  // namespace eio::workloads
