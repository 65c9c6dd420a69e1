// quickstart — the smallest end-to-end use of ensembleio.
//
// Builds a simulated platform, runs a 64-task job that writes and
// reads a shared file under IPM-I/O tracing, and then does what the
// paper teaches: ignore individual events, look at the ensemble —
// histogram, moments, modes — and ask the diagnoser what's wrong.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <vector>

#include "core/ascii_chart.h"
#include "core/diagnose.h"
#include "core/distribution.h"
#include "core/histogram.h"
#include "core/modes.h"
#include "core/samples.h"
#include "ipm/report.h"
#include "workloads/experiment.h"

using namespace eio;

int main() {
  // 1. Pick a platform. franklin() is the calibrated Cray XT4 + Lustre
  //    model (48 OSTs, the strided read-ahead defect, intra-node
  //    stream serialization). Everything is a plain struct field —
  //    tweak anything.
  lustre::MachineConfig machine = lustre::MachineConfig::franklin();

  // 2. Describe the job: one Program per rank. Here every rank writes
  //    four 64 MiB blocks to its own region of one shared file, with a
  //    barrier after each block (a classic checkpoint shape).
  const std::uint32_t ranks = 64;
  const Bytes block = 64 * MiB;
  workloads::JobSpec job;
  job.name = "quickstart-checkpoint";
  job.machine = machine;
  job.stripe_options["ckpt.dat"] = {.stripe_count = machine.ost_count,
                                    .shared = true};
  std::vector<mpi::Program> programs;
  for (RankId r = 0; r < ranks; ++r) {
    mpi::Program p;
    p.open(0, "ckpt.dat");
    for (std::uint32_t step = 0; step < 4; ++step) {
      p.phase(static_cast<std::int32_t>(step));
      p.seek(0, (static_cast<Bytes>(step) * ranks + r) * block);
      p.write(0, block);
      p.barrier();
    }
    p.close(0);
    programs.push_back(std::move(p));
  }
  job.programs = std::move(programs);

  // 3. Run it. The result carries the IPM-I/O trace, the in-situ
  //    profile, and file-system counters.
  workloads::RunResult result = workloads::run_job(job);
  std::printf("job finished in %.1f s — %s aggregate\n", result.job_time,
              analysis::format_rate(result.reported_rate()).c_str());

  // The classic IPM job banner: per-call profile + imbalance triple.
  std::printf("\n%s", ipm::report_text(result.trace).c_str());

  // 4. Events -> ensembles: pull the write durations out of the trace
  //    and look at the distribution, not the events.
  auto writes = analysis::durations(result.trace,
                                    {.op = posix::OpType::kWrite,
                                     .min_bytes = MiB});
  stats::EmpiricalDistribution dist(writes);
  std::printf("\n%zu write() calls: mean %.2f s, median %.2f s, "
              "max %.2f s, cv %.2f\n",
              writes.size(), dist.mean(), dist.median(), dist.max(),
              dist.moments().cv());

  stats::Histogram hist =
      stats::Histogram::from_samples(writes, stats::BinScale::kLinear, 40);
  std::printf("%s", analysis::render_histogram(
                        hist, {.width = 72, .height = 10,
                               .x_label = "write duration (s)",
                               .y_label = "count"})
                        .c_str());

  // 5. The modes tell the story the mean hides: R / R/2 / R/4 peaks
  //    mean your node's client is serializing streams.
  auto modes = stats::find_modes(writes, {.bandwidth_scale = 0.5});
  std::printf("modes:");
  for (const auto& m : modes) {
    std::printf("  %.1fs (%.0f%% of events)", m.location, m.mass * 100.0);
  }
  std::printf("\n");

  // 6. Or just ask the diagnoser.
  analysis::DiagnoserOptions options;
  options.fair_share_rate = workloads::fair_share_rate(machine, ranks);
  auto findings = analysis::diagnose(result.trace, options);
  std::printf("\ndiagnosis (%zu finding%s):\n", findings.size(),
              findings.size() == 1 ? "" : "s");
  for (const auto& f : findings) {
    std::printf("  [%s] %s\n", analysis::finding_name(f.code), f.message.c_str());
  }
  if (findings.empty()) std::printf("  (nothing pathological — nice)\n");
  return 0;
}
