// Parallel ensemble execution.
//
// The paper's method lives on ensembles — conclusions come from the
// distribution over many runs, not from single events — and tight
// confidence on modes and tails needs dozens-to-hundreds of runs per
// configuration. Because a RunInstance shares no mutable state with
// any other (see workloads/experiment.h), runs are embarrassingly
// parallel: the ParallelEnsembleRunner executes them on a fixed pool
// of worker threads, one isolated RunInstance per task, with seed
// derivation identical to the serial runner (machine.seed + run
// index). Results are therefore byte-identical to serial execution —
// same traces, same histograms, same KS statistics — for any thread
// count.
#pragma once

#include <cstddef>
#include <vector>

#include "workloads/experiment.h"

namespace eio::workloads {

/// Resolve a jobs knob: nonzero values pass through; 0 means the
/// EIO_JOBS environment variable if set to a positive integer, else
/// std::thread::hardware_concurrency() (at least 1).
[[nodiscard]] std::size_t resolve_jobs(std::size_t jobs);

struct EnsembleOptions {
  /// Worker threads. 0 = default (EIO_JOBS env or hardware concurrency).
  std::size_t jobs = 0;
};

/// Executes sets of runs on a fixed thread pool. Stateless between
/// calls; safe to reuse and cheap to construct.
class ParallelEnsembleRunner {
 public:
  explicit ParallelEnsembleRunner(EnsembleOptions options = {});

  /// The resolved worker-thread count.
  [[nodiscard]] std::size_t jobs() const noexcept { return jobs_; }

  /// Execute arbitrary job specs concurrently; results land in input
  /// order. If any run throws, no further run starts, runs already
  /// started finish, and the error of the lowest-index failed run —
  /// the one a serial loop reports — is rethrown.
  [[nodiscard]] std::vector<RunResult> run_jobs(
      const std::vector<JobSpec>& specs) const;

  /// Execute `runs` runs of one experiment with seeds machine.seed + r
  /// and result names "<name>#r" — exactly the serial run_ensemble()
  /// contract, parallelized.
  [[nodiscard]] std::vector<RunResult> run_ensemble(JobSpec spec,
                                                    std::size_t runs) const;

 private:
  std::size_t jobs_;
};

/// Convenience: run arbitrary specs on a temporary runner.
[[nodiscard]] std::vector<RunResult> run_jobs(const std::vector<JobSpec>& specs,
                                              std::size_t jobs = 0);

}  // namespace eio::workloads
