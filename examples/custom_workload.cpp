// custom_workload — building your own experiment on the public API.
//
// Compares two checkpointing strategies that the paper's machinery can
// adjudicate: N-to-1 (every rank writes its slice of one shared file)
// versus N-to-N (file per process), on the same platform, using the
// ensemble statistics to explain *why* the winner wins. Also shows the
// in-situ profiling mode (ipm::Mode::kProfile) — the paper's
// future-work capture paradigm — standing in for a full trace.
//
// Build & run:  ./build/examples/custom_workload
#include <cstdio>
#include <string>
#include <vector>

#include "core/ascii_chart.h"
#include "core/distribution.h"
#include "core/ks.h"
#include "core/samples.h"
#include "workloads/experiment.h"

using namespace eio;

namespace {

constexpr std::uint32_t kRanks = 128;
constexpr Bytes kSlice = 96 * MiB;

/// N-to-1: one wide-striped shared file, rank r at offset r * slice.
workloads::JobSpec shared_file_job(const lustre::MachineConfig& machine) {
  workloads::JobSpec job;
  job.name = "ckpt-shared";
  job.machine = machine;
  job.stripe_options["shared.ckpt"] = {.stripe_count = machine.ost_count,
                                       .shared = true};
  std::vector<mpi::Program> programs;
  for (RankId r = 0; r < kRanks; ++r) {
    mpi::Program p;
    p.open(0, "shared.ckpt");
    p.phase(1);
    p.seek(0, static_cast<Bytes>(r) * kSlice);
    p.write(0, kSlice);
    p.barrier();
    p.close(0);
    programs.push_back(std::move(p));
  }
  job.programs = std::move(programs);
  return job;
}

/// N-to-N: a private file per rank, default (single-OST) striping —
/// the classic "it worked on my laptop" checkpoint layout.
workloads::JobSpec file_per_process_job(const lustre::MachineConfig& machine) {
  workloads::JobSpec job;
  job.name = "ckpt-fpp";
  job.machine = machine;
  std::vector<mpi::Program> programs;
  for (RankId r = 0; r < kRanks; ++r) {
    std::string path = "rank" + std::to_string(r) + ".ckpt";
    job.stripe_options[path] = {.stripe_count = 1, .shared = false};
    mpi::Program p;
    p.open(0, path);
    p.phase(1);
    p.write(0, kSlice);
    p.barrier();
    p.close(0);
    programs.push_back(std::move(p));
  }
  job.programs = std::move(programs);
  return job;
}

void summarize(const workloads::RunResult& r) {
  auto writes = analysis::durations(r.trace, {.op = posix::OpType::kWrite,
                                              .min_bytes = MiB});
  stats::EmpiricalDistribution d(writes);
  std::printf("  %-12s job %6.1f s   rate %-12s  write med %5.1f s  "
              "max %5.1f s  cv %.2f\n",
              r.name.c_str(), r.job_time,
              analysis::format_rate(r.reported_rate()).c_str(), d.median(),
              d.max(), d.moments().cv());
}

}  // namespace

int main() {
  lustre::MachineConfig machine = lustre::MachineConfig::franklin();
  std::printf("checkpointing %u ranks x %.0f MiB on %s:\n\n", kRanks,
              to_mib(kSlice), machine.name.c_str());

  workloads::RunResult shared = workloads::run_job(shared_file_job(machine));
  workloads::RunResult fpp = workloads::run_job(file_per_process_job(machine));
  summarize(shared);
  summarize(fpp);

  // Why: single-OST private files bottleneck each rank on one server's
  // share, while the wide-striped shared file lets every rank draw on
  // the whole OST pool. The per-event distributions make it obvious.
  auto ws = analysis::durations(shared.trace, {.op = posix::OpType::kWrite,
                                               .min_bytes = MiB});
  auto wf = analysis::durations(fpp.trace, {.op = posix::OpType::kWrite,
                                            .min_bytes = MiB});
  stats::KsResult ks = stats::ks_two_sample(ws, wf);
  std::printf("\n  KS distance between the two write-time ensembles: %.2f "
              "(utterly different populations)\n",
              ks.statistic);

  // Same comparison, but captured with in-situ profiling only: no
  // per-event storage, same conclusion — the paper's scalability
  // argument for moving from tracing to profiling.
  workloads::JobSpec profiled = shared_file_job(machine);
  profiled.capture = ipm::Mode::kProfile;
  workloads::RunResult prof = workloads::run_job(profiled);
  std::printf("\n  profile-only capture: %zu trace events stored, "
              "%llu histogram observations,\n"
              "  approximate mean write %.1f s (trace said %.1f s)\n",
              prof.trace.size(),
              static_cast<unsigned long long>(prof.profile.total()),
              prof.profile.approximate_mean(posix::OpType::kWrite),
              stats::compute_moments(ws).mean);
  return 0;
}
