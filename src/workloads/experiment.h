// Experiment driver: build a simulated job, run it, keep everything.
//
// The paper's vocabulary: "we refer to a particular choice of test
// parameters as an experiment and a specific instance of running that
// experiment simply as a run". A JobSpec is an experiment; run_job()
// performs one run (seeded deterministically); run_ensemble() performs
// several runs with derived seeds for reproducibility studies.
//
// A RunInstance is the isolation boundary: it owns one run's complete
// object graph (the sim::RunContext with engine + RNG streams, the
// Filesystem, the POSIX layer, the IPM monitor, and the MPI runtime)
// and shares nothing with any other RunInstance. That is what lets
// ensembles execute runs on concurrent threads (see
// workloads/ensemble.h) with byte-identical results to serial
// execution.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "fault/injector.h"
#include "ipm/monitor.h"
#include "ipm/sink.h"
#include "lustre/filesystem.h"
#include "lustre/machine.h"
#include "mpi/program.h"
#include "mpi/runtime.h"
#include "posix/vfs.h"
#include "sim/run_context.h"

namespace eio::workloads {

/// An experiment: machine + per-rank programs + capture settings.
struct JobSpec {
  std::string name = "job";
  lustre::MachineConfig machine;
  /// One program per rank, built once by the workload builder and
  /// shared (not copied) by every copy of the spec and every run.
  mpi::ProgramSet programs;
  std::map<std::string, lustre::FileOptions> stripe_options;  ///< per path
  ipm::Mode capture = ipm::Mode::kBoth;
  mpi::CollectiveCosts collective_costs;
  /// Fault plan injected into every run of this experiment (empty =
  /// healthy machine, no perturbation, no extra RNG draws). Faults are
  /// executed by a per-run fault::Injector, so an ensemble's runs each
  /// suffer their own deterministic instance of the pathology.
  fault::Plan faults;
  /// Optional per-run streaming sink: called once per run with the run
  /// index; the returned sink receives every completed call as it
  /// retires (before any trace/profile harvesting) and its finish() is
  /// invoked when the run completes. Lets ensembles compute per-run
  /// statistics without retaining whole traces (capture = kProfile).
  std::function<std::shared_ptr<ipm::EventSink>(std::size_t run_index)>
      sink_factory;
};

/// Everything a run produces.
struct RunResult {
  std::string name;
  Seconds job_time = 0.0;        ///< slowest rank's finish time
  ipm::Trace trace;
  ipm::Profile profile;
  lustre::FilesystemStats fs_stats;
  std::uint64_t engine_events = 0;
  Seconds monitor_overhead = 0.0;
  /// Injection counters of this run's fault::Injector (all zero when
  /// the job's fault plan is empty).
  fault::Counts fault_counts;
  /// The sink produced by JobSpec::sink_factory for this run (if any),
  /// already finish()ed — ready for result extraction.
  std::shared_ptr<ipm::EventSink> sink;
  /// Reported aggregate data rate the way benchmarks report it:
  /// payload bytes moved / job wall time.
  [[nodiscard]] double reported_rate() const {
    return job_time > 0.0
               ? static_cast<double>(fs_stats.bytes_written + fs_stats.bytes_read) /
                     job_time
               : 0.0;
  }
};

/// One run as a self-contained, thread-safe unit. Owns a copy of the
/// JobSpec (whose immutable program set it shares with every other
/// copy) and every piece of mutable simulation state the run touches:
///
///   sim::RunContext  — event engine (clock + calendar) and the
///                      run-scoped RNG stream factory, seeded from
///                      spec.machine.seed (+ run index in ensembles);
///   lustre::Filesystem, posix::PosixIo — the storage stack;
///   ipm::Monitor     — the per-run trace/profile collectors;
///   mpi::Runtime     — rank progress over the shared programs, and
///                      the collectives.
///
/// Two RunInstances share only immutable programs, so any number of them
/// may execute() on concurrent threads.
class RunInstance {
 public:
  /// Builds the run's object graph; the run executes with seed
  /// spec.machine.seed. `run_index` tags the context in ensembles.
  explicit RunInstance(JobSpec spec, std::uint64_t run_index = 0);

  RunInstance(const RunInstance&) = delete;
  RunInstance& operator=(const RunInstance&) = delete;

  /// Run every rank to completion and collect the results. Call once.
  [[nodiscard]] RunResult execute();

  [[nodiscard]] const JobSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] sim::RunContext& context() noexcept { return run_; }
  [[nodiscard]] lustre::Filesystem& filesystem() noexcept { return fs_; }
  [[nodiscard]] posix::PosixIo& io() noexcept { return io_; }
  [[nodiscard]] ipm::Monitor& monitor() noexcept { return monitor_; }
  [[nodiscard]] mpi::Runtime& runtime() noexcept { return runtime_; }
  /// The run's fault injector (nullptr when the plan is empty).
  [[nodiscard]] fault::Injector* injector() noexcept { return injector_.get(); }

 private:
  JobSpec spec_;
  std::uint32_t ranks_;
  sim::RunContext run_;
  std::unique_ptr<fault::Injector> injector_;  ///< before fs_: fs uses it
  lustre::Filesystem fs_;
  posix::PosixIo io_;
  ipm::Monitor monitor_;
  mpi::Runtime runtime_;
  std::shared_ptr<ipm::EventSink> sink_;
  bool executed_ = false;
};

/// Execute one run of the experiment.
[[nodiscard]] RunResult run_job(const JobSpec& spec);

/// Execute `runs` runs with seeds derived from the machine seed
/// (machine.seed + run index); the per-run traces land in the results.
/// Runs execute on `jobs` worker threads (0 = the EIO_JOBS environment
/// variable if set, else hardware concurrency); results are identical
/// to serial execution for any thread count.
[[nodiscard]] std::vector<RunResult> run_ensemble(JobSpec spec, std::size_t runs,
                                                  std::size_t jobs = 0);

/// Per-task fair-share rate of a machine at a given task count:
/// aggregate OST bandwidth divided by the number of tasks.
[[nodiscard]] Rate fair_share_rate(const lustre::MachineConfig& machine,
                                   std::uint32_t tasks);

/// Nodes needed for `tasks` ranks on this machine.
[[nodiscard]] std::uint32_t node_count_for(const lustre::MachineConfig& machine,
                                           std::uint32_t tasks);

}  // namespace eio::workloads
