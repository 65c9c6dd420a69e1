#include "workloads/gcrm.h"

#include <vector>

#include "common/check.h"
#include "h5/h5part.h"

namespace eio::workloads {

namespace {

/// Per-variable record counts in program order: the three single-record
/// variables first, then the three six-record variables.
std::vector<std::uint32_t> variable_records(const GcrmConfig& c) {
  std::vector<std::uint32_t> v;
  v.insert(v.end(), c.single_record_vars, 1);
  v.insert(v.end(), c.multi_record_vars, c.records_per_multi);
  return v;
}

}  // namespace

JobSpec make_gcrm_job(const lustre::MachineConfig& machine,
                      const GcrmConfig& config) {
  EIO_CHECK(config.tasks >= 1);
  EIO_CHECK(config.record_bytes >= 1);
  std::uint32_t io_ranks = 0;
  if (config.collective_buffering) {
    EIO_CHECK_MSG(config.io_tasks >= 1 && config.tasks % config.io_tasks == 0,
                  "io_tasks must divide tasks");
    io_ranks = config.io_tasks;
  }

  JobSpec job;
  job.machine = machine;
  job.name = "gcrm-" + std::to_string(config.tasks) + "t";
  if (config.collective_buffering) job.name += "-cb" + std::to_string(config.io_tasks);
  if (config.align_records) job.name += "-aligned";
  if (config.aggregate_metadata) job.name += "-aggmeta";

  std::uint32_t stripes =
      config.stripe_count == 0 ? machine.ost_count : config.stripe_count;
  job.stripe_options[config.file_name] = {.stripe_count = stripes,
                                          .shared = config.tasks > 1};

  h5::H5Config h5_config;
  h5_config.meta_block = config.meta_bytes;
  h5_config.btree_fanout = config.btree_fanout;
  h5_config.alignment = config.align_records ? machine.stripe_size : 0;
  h5_config.defer_metadata = config.aggregate_metadata;
  h5_config.per_write_overhead = config.h5_overhead_per_write;
  h5::H5PartWriter h5(config.tasks, h5_config, config.record_bytes);

  std::vector<mpi::Program> programs(config.tasks);
  auto all_phase = [&](std::int32_t phase) {
    for (auto& p : programs) p.phase(phase);
  };

  h5.emit_open(programs, 0, config.file_name);
  h5.emit_set_step(programs, 0);

  const auto records = variable_records(config);
  const std::uint32_t group =
      io_ranks > 0 ? config.tasks / io_ranks : 1;
  for (std::size_t v = 0; v < records.size(); ++v) {
    all_phase(GcrmConfig::var_phase(static_cast<std::uint32_t>(v)));
    if (io_ranks > 0) {
      // Collective-buffering stage one: ship this variable's records
      // to the aggregators before they issue the file writes.
      for (auto& p : programs) {
        p.gather(group, static_cast<Bytes>(records[v]) * config.record_bytes);
      }
    }
    h5.emit_write_field(programs, 0, records[v], io_ranks);
    for (auto& p : programs) p.barrier();
  }

  all_phase(GcrmConfig::kClosePhase);
  h5.emit_close(programs, 0);
  job.programs = std::move(programs);
  return job;
}

}  // namespace eio::workloads
