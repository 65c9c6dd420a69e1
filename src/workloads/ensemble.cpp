#include "workloads/ensemble.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/jobs.h"
#include "obs/registry.h"

namespace eio::workloads {

std::size_t resolve_jobs(std::size_t jobs) { return eio::resolve_jobs(jobs); }

ParallelEnsembleRunner::ParallelEnsembleRunner(EnsembleOptions options)
    : jobs_(resolve_jobs(options.jobs)) {}

std::vector<RunResult> ParallelEnsembleRunner::run_jobs(
    const std::vector<JobSpec>& specs) const {
  std::vector<RunResult> results(specs.size());
  if (specs.empty()) return results;
  OBS_SPAN("ensemble.run_jobs");

  std::size_t workers = std::min(jobs_, specs.size());
  OBS_GAUGE_SET("ensemble.jobs", workers);
  if (workers <= 1) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      OBS_SPAN("ensemble.run");
      RunInstance run(specs[i], i);
      results[i] = run.execute();
      OBS_COUNTER_ADD("ensemble.runs_completed", 1);
    }
    return results;
  }

  // Work-stealing by atomic index: each worker claims the next
  // unstarted run. Every run builds its own RunInstance, so workers
  // share only the read-only specs and disjoint result slots. After a
  // failure no worker starts another run; runs already started finish.
  // Runs are claimed in index order, so every run below the lowest
  // failed index has started, and rethrowing that run's error reports
  // what the serial loop would.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::size_t error_index = specs.size();
  std::exception_ptr error;
  auto worker = [&] {
    while (!failed.load(std::memory_order_acquire)) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= specs.size()) return;
      try {
        OBS_SPAN("ensemble.run");
        RunInstance run(specs[i], i);
        results[i] = run.execute();
        OBS_COUNTER_ADD("ensemble.runs_completed", 1);
      } catch (...) {
        failed.store(true, std::memory_order_release);
        std::lock_guard<std::mutex> lock(error_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
  return results;
}

std::vector<RunResult> ParallelEnsembleRunner::run_ensemble(
    JobSpec spec, std::size_t runs) const {
  EIO_CHECK(runs >= 1);
  // Seed derivation identical to the historical serial runner: run r
  // executes with master seed machine.seed + r and keeps the spec's
  // name (the "#r" suffix goes on the result, not the trace).
  std::vector<JobSpec> specs;
  specs.reserve(runs);
  const std::uint64_t base_seed = spec.machine.seed;
  for (std::size_t r = 0; r < runs; ++r) {
    spec.machine.seed = base_seed + r;
    specs.push_back(spec);
  }
  std::vector<RunResult> results = run_jobs(specs);
  for (std::size_t r = 0; r < runs; ++r) {
    results[r].name = specs[r].name + "#" + std::to_string(r);
  }
  return results;
}

std::vector<RunResult> run_jobs(const std::vector<JobSpec>& specs,
                                std::size_t jobs) {
  return ParallelEnsembleRunner(EnsembleOptions{.jobs = jobs}).run_jobs(specs);
}

}  // namespace eio::workloads
