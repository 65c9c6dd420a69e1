#include "workloads/ior.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "common/rng.h"

namespace eio::workloads {

JobSpec make_ior_job(const lustre::MachineConfig& machine, const IorConfig& config) {
  EIO_CHECK(config.tasks >= 1);
  EIO_CHECK(config.segments >= 1);
  EIO_CHECK(config.calls_per_block >= 1);
  EIO_CHECK_MSG(config.block_size % config.calls_per_block == 0,
                "block size must divide evenly into k calls");

  JobSpec job;
  job.machine = machine;
  job.name = "ior-" + std::to_string(config.tasks) + "x" +
             std::to_string(to_mib(config.block_size)) + "MiB-k" +
             std::to_string(config.calls_per_block);
  if (config.random_offsets) job.name += "-random";
  if (config.file_per_process) job.name += "-fpp";

  std::uint32_t stripes =
      config.stripe_count == 0 ? machine.ost_count : config.stripe_count;
  if (!config.file_per_process) {
    job.stripe_options[config.file_name] = {.stripe_count = stripes,
                                            .shared = config.tasks > 1};
  }

  const Bytes call_bytes = config.block_size / config.calls_per_block;
  rng::StreamFactory shuffles(machine.seed ^ 0x10BULL);

  std::vector<mpi::Program> programs;
  programs.reserve(config.tasks);
  for (RankId rank = 0; rank < config.tasks; ++rank) {
    std::string path = config.file_name;
    if (config.file_per_process) {
      path = config.file_name + "." + std::to_string(rank);
      job.stripe_options[path] = {.stripe_count = config.fpp_stripe_count,
                                  .shared = false};
    }

    // Segment slot order: sequential ("interleaved") or a per-task
    // permutation ("random").
    std::vector<std::uint32_t> slots(config.segments);
    std::iota(slots.begin(), slots.end(), 0u);
    if (config.random_offsets) {
      rng::Stream rs = rng::make_stream(shuffles, rng::StreamKind::kWorkload, rank);
      for (std::size_t i = slots.size(); i > 1; --i) {
        std::swap(slots[i - 1], slots[rs.index(i)]);
      }
    }
    auto slot_offset = [&](std::uint32_t slot) {
      // Shared file: segments of task-interleaved blocks. Private
      // file: consecutive blocks.
      return config.file_per_process
                 ? static_cast<Bytes>(slot) * config.block_size
                 : (static_cast<Bytes>(slot) * config.tasks + rank) *
                       config.block_size;
    };

    mpi::Program p;
    p.open(0, path);
    for (std::uint32_t s = 0; s < config.segments; ++s) {
      p.phase(IorConfig::write_phase(s));
      p.seek(0, slot_offset(slots[s]));
      for (std::uint32_t c = 0; c < config.calls_per_block; ++c) {
        p.write(0, call_bytes);
      }
      p.barrier();
      if (config.read_back) {
        p.phase(IorConfig::read_phase(s));
        p.seek(0, slot_offset(slots[s]));
        for (std::uint32_t c = 0; c < config.calls_per_block; ++c) {
          p.read(0, call_bytes);
        }
        p.barrier();
      }
    }
    p.close(0);
    programs.push_back(std::move(p));
  }
  job.programs = std::move(programs);
  return job;
}

}  // namespace eio::workloads
